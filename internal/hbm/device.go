// Package hbm implements the simulated HBM2 DRAM stack: channels, pseudo
// channels, banks, rows, mode registers, refresh logic, on-die ECC, the
// proprietary TRR mitigation, and a picosecond-resolution command clock.
//
// The device exposes the same command-level interface a memory controller
// drives over the HBM2 interface: ACT, PRE, RD, WR, REF, and mode register
// writes, with JESD235-style timing constraints enforced strictly (a
// violating command returns an error rather than silently stalling, which
// is what a testing infrastructure wants).
//
// Physical behaviour — bitflips from RowHammer disturbance and charge
// decay — materializes when a row is sensed (activated or refreshed),
// exactly as in real DRAM: the sense amplifiers latch whatever charge
// remains and restore it, making any accumulated flips permanent.
package hbm

import (
	"errors"
	"fmt"
	"math"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/faultmodel"
	"github.com/safari-repro/hbmrh/internal/mapping"
	"github.com/safari-repro/hbmrh/internal/trr"
)

// Sentinel errors. Command errors wrap one of these, so callers can
// distinguish timing bugs in their programs from addressing mistakes.
var (
	ErrTiming  = errors.New("timing violation")
	ErrState   = errors.New("illegal bank state")
	ErrAddress = errors.New("address out of range")
)

// Mode register assignments. The paper disables on-die ECC by clearing a
// mode register bit; we model that bit here.
const (
	// MRECC is the mode register index holding the ECC enable bit.
	MRECC = 4
	// MRECCEnable is the ECC enable bit within MRECC. Set at power-up;
	// cleared by the characterization setup.
	MRECCEnable = 0x1
	// NumModeRegisters is the number of mode registers per channel.
	NumModeRegisters = 16
)

// farPast initializes timing bookkeeping so the first command of every
// kind is always legal.
const farPast = math.MinInt64 / 4

// Stats counts device activity, for tests, reports and ablations.
// BitflipsCommitted and ECCCorrections count the flips of senses that
// compute them: an ActivateOverwrite sense computes none, so flips a
// row would have latched only to have every bit overwritten before any
// read are not counted.
type Stats struct {
	Acts               int64
	Precharges         int64
	Reads              int64
	Writes             int64
	Refreshes          int64
	TRRVictimRefreshes int64
	ECCCorrections     int64
	BitflipsCommitted  int64
}

// Device is one simulated HBM2 stack. A Device, and the fault model it
// owns, is not safe for concurrent use: the engine's device pool leases
// each device to one worker at a time, so neither takes a lock.
type Device struct {
	cfg    *config.Config
	fm     *faultmodel.Model
	mapper mapping.Mapper
	layout *addr.SubarrayLayout

	now   int64 // simulated time in picoseconds
	tempC float64
	// tscale and thrTemp are the retention and RowHammer-threshold
	// temperature factors at tempC, which every sense applies; they
	// change only with the temperature (see SetTemperature).
	tscale, thrTemp float64

	// pcs holds the pseudo channels, indexed channel*PseudoChannels +
	// pseudo channel; banks holds every bank, indexed by BankAddr.Flat,
	// so each pseudo channel's banks are one contiguous run of it.
	pcs      []pseudoChannel
	banks    []bankState
	modeRegs [][]uint32 // indexed [channel][register]

	stats Stats

	// senseRef selects the reference sense implementation over the fast
	// path (testing/ablation only; both are bit-identical).
	senseRef bool
	// flipScratch is the reusable flip accumulator of the sense fast
	// path, so steady-state probing allocates nothing per sense;
	// fillScratch and wordScratch are FirstFlipBurst's.
	flipScratch []int
	fillScratch []byte
	wordScratch []int
}

type pseudoChannel struct {
	banks   []bankState // this pseudo channel's run of Device.banks
	eng     *trr.Engine
	doc     *trr.DocumentedMode
	docBank int
	lastRef int64
	refPtr  int // next physical row to be refreshed in every bank
}

type bankState struct {
	addr    addr.BankAddr  // the bank's own address, for the fault model and errors
	pc      *pseudoChannel // the pseudo channel the bank belongs to
	open    int            // physical row latched in the row buffer, -1 when precharged
	lastAct int64
	lastPre int64
	// rows holds the materialized physical rows, indexed by physical row
	// number. The slice itself materializes on the bank's first touched
	// row; untouched banks cost nothing. Direct indexing replaced a
	// map[int]*rowState that dominated the disturb/sense hot path.
	rows []*rowState
}

// rowAt returns the materialized state of a physical row, or nil when the
// row (or the whole bank) has never been touched.
func (bk *bankState) rowAt(phys int) *rowState {
	if bk.rows == nil {
		return nil
	}
	return bk.rows[phys]
}

// rowState tracks the mutable physical condition of one row. Rows
// materialize lazily: an untouched row holds all-zero data, fully charged
// at power-up (time 0). The data image itself materializes even more
// lazily: a nil data slice means the power-up pattern (all zeros), so rows
// that only ever accumulate disturbance — every hammer victim that never
// flips — never allocate a row-sized backing array.
type rowState struct {
	data      []byte
	lastSense int64   // when charge was last restored
	disturb   float64 // disturbance units accumulated since lastSense
}

// bytes returns the row's data image, materializing the backing array on
// first real need (a write or a committed bitflip).
func (rs *rowState) bytes(d *Device) []byte {
	if rs.data == nil {
		rs.data = make([]byte, d.cfg.Geometry.RowBytes())
	}
	return rs.data
}

// New powers up a device from the given configuration.
func New(cfg *config.Config) (*Device, error) {
	fm, err := faultmodel.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("hbm: %w", err)
	}
	mapper, err := mapping.New(cfg.Mapping, cfg.Geometry.Rows)
	if err != nil {
		return nil, fmt.Errorf("hbm: %w", err)
	}
	d := &Device{
		cfg:    cfg,
		fm:     fm,
		mapper: mapper,
		layout: fm.Layout(),
	}
	d.SetTemperature(cfg.Ret.RefTempC)
	g := cfg.Geometry
	d.pcs = make([]pseudoChannel, g.Channels*g.PseudoChannels)
	d.banks = make([]bankState, g.TotalBanks())
	for i := range d.pcs {
		eng, err := trr.NewEngine(cfg.TRR, g.Banks, g.Rows)
		if err != nil {
			return nil, fmt.Errorf("hbm: %w", err)
		}
		pc := &d.pcs[i]
		*pc = pseudoChannel{
			banks:   d.banks[i*g.Banks : (i+1)*g.Banks],
			eng:     eng,
			doc:     trr.NewDocumentedMode(g.Rows, cfg.TRR.NeighborRadius),
			docBank: -1,
			lastRef: farPast,
		}
		for b := range pc.banks {
			pc.banks[b] = bankState{
				addr:    addr.BankAddr{Channel: i / g.PseudoChannels, PseudoChannel: i % g.PseudoChannels, Bank: b},
				pc:      pc,
				open:    -1,
				lastAct: farPast,
				lastPre: farPast,
			}
		}
	}
	d.modeRegs = make([][]uint32, g.Channels)
	for ch := range d.modeRegs {
		d.modeRegs[ch] = make([]uint32, NumModeRegisters)
		d.modeRegs[ch][MRECC] = MRECCEnable // ECC enabled at power-up
	}
	return d, nil
}

// Config returns the device configuration (treat as read-only).
func (d *Device) Config() *config.Config { return d.cfg }

// Geometry returns the device geometry.
func (d *Device) Geometry() addr.Geometry { return d.cfg.Geometry }

// Mapper exposes the in-DRAM row mapping. Real attackers must recover it
// with the reverse-engineering procedure in internal/mapping; the
// simulator exposes it for white-box tests and tooling.
func (d *Device) Mapper() mapping.Mapper { return d.mapper }

// Stats returns a snapshot of the activity counters.
func (d *Device) Stats() Stats { return d.stats }

// ModelCounters reports the fault model's work: how many row profiles it
// computed and how often it built or widened a threshold ladder. They
// count computation, not device activity, so unlike Stats they differ
// between implementations that the equivalence tests hold to equal
// Stats: the reference sense path builds no ladder, and a dead sense
// computes no profile.
func (d *Device) ModelCounters() faultmodel.Counters { return d.fm.Counters() }

// SetProfileCacheCap bounds the fault model's row-profile cache to n
// entries, dropping every cached profile: a testing and ablation hook
// for studies whose working set exceeds the cache (see
// faultmodel.Model.SetCacheCap).
func (d *Device) SetProfileCacheCap(n int) { d.fm.SetCacheCap(n) }

// Now returns the simulated time in picoseconds since power-up.
func (d *Device) Now() int64 { return d.now }

// AdvanceTime moves the simulated clock forward by ps picoseconds,
// modelling host-side waits between commands.
func (d *Device) AdvanceTime(ps int64) error {
	if ps < 0 {
		return fmt.Errorf("hbm: cannot advance time by %d ps", ps)
	}
	d.now += ps
	return nil
}

// Temperature returns the ambient chip temperature in Celsius.
func (d *Device) Temperature() float64 { return d.tempC }

// SetTemperature sets the ambient chip temperature, as the thermal rig
// does. Retention times scale with the Arrhenius factor at sense time.
func (d *Device) SetTemperature(c float64) {
	d.tempC = c
	// Effective retention shrinks with temperature (Arrhenius factor).
	d.tscale = d.cfg.Ret.Scale(c)
	// RowHammer thresholds also scale (mildly) with temperature; hotter
	// chips flip with fewer hammers when the slope is negative.
	d.thrTemp = max(1+d.cfg.Fault.TempSlopePerC*(c-d.cfg.Ret.RefTempC), 0.05)
}

// Checked and resolved commands. Every bank command has one core, an
// unexported method that takes the resolved *bankState and performs the
// command's timing and bank-state checks and its effects. The public
// checked methods (Activate, Precharge, ReadInto, ...) first prove the
// address in range — the bank, then the row or column — and then call
// the core. The *Resolved methods call the same core on a bank given as
// its BankAddr.Flat index and skip that proof: the DRAM Bender runner
// issues them for programs whose validation already proved every operand
// in range. Out-of-range operands to a *Resolved method panic or address
// the wrong cell; everything else should use the checked methods.

// bankAt is the address proof of a checked bank command.
func (d *Device) bankAt(b addr.BankAddr) (*bankState, error) {
	g := d.cfg.Geometry
	if !b.Valid(g) {
		return nil, fmt.Errorf("hbm: bank %v: %w", b, ErrAddress)
	}
	return &d.banks[b.Flat(g)], nil
}

// pcAt returns a pseudo channel the caller has proven in range.
func (d *Device) pcAt(ch, pc int) *pseudoChannel {
	return &d.pcs[ch*d.cfg.Geometry.PseudoChannels+pc]
}

func (d *Device) row(bank *bankState, physRow int) *rowState {
	if bank.rows == nil {
		bank.rows = make([]*rowState, d.cfg.Geometry.Rows)
	}
	rs := bank.rows[physRow]
	if rs == nil {
		rs = &rowState{}
		bank.rows[physRow] = rs
	}
	return rs
}

// Activate opens a logical row: it checks tRP/tRC/tRFC, senses the row
// (materializing any accumulated bitflips and restoring charge), disturbs
// physical neighbours, and feeds the TRR sampler.
func (d *Device) Activate(b addr.BankAddr, logicalRow int) error {
	bank, err := d.activateAt(b, logicalRow)
	if err != nil {
		return err
	}
	return d.activate(bank, logicalRow, true)
}

// ActivateOverwrite is Activate for a row the caller fully rewrites
// before anything reads it: every column written, then the bank's
// precharge, with no read in between. It does everything Activate does —
// timing checks, charge restore, neighbour disturbance, the TRR sample,
// the activation count and the clock — except computing the sense's
// bitflips. Those flips are unobservable: no other row of the bank can be
// sensed while this one is open, and every bit is overwritten before the
// row can be read or its data can couple into a neighbour's sense. The
// DRAM Bender runner opens such overwrite blocks through its resolved
// form, ActivateResolved with overwrite set.
func (d *Device) ActivateOverwrite(b addr.BankAddr, logicalRow int) error {
	bank, err := d.activateAt(b, logicalRow)
	if err != nil {
		return err
	}
	return d.activate(bank, logicalRow, false)
}

// ActivateResolved is Activate, or with overwrite ActivateOverwrite, on
// the bank at flat index bank, without the address proof.
func (d *Device) ActivateResolved(bank, logicalRow int, overwrite bool) error {
	return d.activate(&d.banks[bank], logicalRow, !overwrite)
}

// activateAt is the address proof of an activation.
func (d *Device) activateAt(b addr.BankAddr, logicalRow int) (*bankState, error) {
	bank, err := d.bankAt(b)
	if err != nil {
		return nil, err
	}
	if logicalRow < 0 || logicalRow >= d.cfg.Geometry.Rows {
		return nil, fmt.Errorf("hbm: activate row %d: %w", logicalRow, ErrAddress)
	}
	return bank, nil
}

// activate is the core of Activate and ActivateOverwrite; flips selects
// whether the sense computes and commits bitflips.
func (d *Device) activate(bank *bankState, logicalRow int, flips bool) error {
	if bank.open != -1 {
		return fmt.Errorf("hbm: activate %v while row %d open: %w", bank.addr, bank.open, ErrState)
	}
	t := &d.cfg.Timing
	switch {
	case d.now-bank.lastPre < t.TRP:
		return fmt.Errorf("hbm: activate %v violates tRP: %w", bank.addr, ErrTiming)
	case d.now-bank.lastAct < t.TRC:
		return fmt.Errorf("hbm: activate %v violates tRC: %w", bank.addr, ErrTiming)
	case d.now-bank.pc.lastRef < t.TRFC:
		return fmt.Errorf("hbm: activate %v violates tRFC: %w", bank.addr, ErrTiming)
	}
	phys := d.mapper.ToPhysical(logicalRow)
	d.senseAndRestore(bank, phys, d.now, flips)
	d.applyDisturb(bank, phys, 1)
	bank.pc.eng.ObserveActivate(bank.addr.Bank, phys)
	bank.open = phys
	bank.lastAct = d.now
	d.stats.Acts++
	d.now += t.TCK
	return nil
}

// actDose returns the disturbance factor of one activation held open for
// holdPS: the base unit plus its RowPress amplification (rowPressExtra).
func (d *Device) actDose(holdPS int64) float64 { return 1 + d.rowPressExtra(holdPS) }

// rowWriteHold is how long a full-row write at minimum timing holds its
// row open: tRCD to the first column write, one tCK per column, and no
// less than tRAS before the precharge may close it.
func (d *Device) rowWriteHold() int64 {
	t := &d.cfg.Timing
	return max(t.TRAS, t.TRCD+int64(d.cfg.Geometry.Columns)*t.TCK)
}

// rowPressExtra returns the additional disturbance factor (beyond the
// base 1.0 per activation) earned by holding the aggressor open for
// holdPS: the RowPress read-disturb amplification. Minimum-timing
// activations (hold = tRAS) earn nothing.
func (d *Device) rowPressExtra(holdPS int64) float64 {
	f := &d.cfg.Fault
	tras := d.cfg.Timing.TRAS
	if f.RowPressGain <= 0 || holdPS <= tras {
		return 0
	}
	extra := f.RowPressGain * float64(holdPS-tras) / float64(tras)
	if max := f.RowPressMaxFactor - 1; extra > max {
		extra = max
	}
	return extra
}

// Precharge closes the open row. Precharging an idle bank is a no-op, as
// in real DRAM. Rows held open beyond tRAS impart extra RowPress
// disturbance on their neighbours, settled here where the hold time is
// known.
func (d *Device) Precharge(b addr.BankAddr) error {
	bank, err := d.bankAt(b)
	if err != nil {
		return err
	}
	return d.precharge(bank)
}

// PrechargeResolved is Precharge on the bank at flat index bank, without
// the address proof.
func (d *Device) PrechargeResolved(bank int) error { return d.precharge(&d.banks[bank]) }

// precharge is the core of Precharge.
func (d *Device) precharge(bank *bankState) error {
	if bank.open != -1 {
		hold := d.now - bank.lastAct
		if hold < d.cfg.Timing.TRAS {
			return fmt.Errorf("hbm: precharge %v violates tRAS: %w", bank.addr, ErrTiming)
		}
		if extra := d.rowPressExtra(hold); extra > 0 {
			d.applyDisturb(bank, bank.open, extra)
		}
		bank.open = -1
		bank.lastPre = d.now
	}
	d.stats.Precharges++
	d.now += d.cfg.Timing.TCK
	return nil
}

// PrechargeAll precharges every bank in a pseudo channel.
func (d *Device) PrechargeAll(ch, pc int) error {
	if err := d.checkPC(ch, pc); err != nil {
		return err
	}
	banks := d.pcAt(ch, pc).banks
	for i := range banks {
		state := &banks[i]
		if state.open != -1 {
			hold := d.now - state.lastAct
			if hold < d.cfg.Timing.TRAS {
				return fmt.Errorf("hbm: precharge-all %v violates tRAS: %w", state.addr, ErrTiming)
			}
			if extra := d.rowPressExtra(hold); extra > 0 {
				d.applyDisturb(state, state.open, extra)
			}
			state.open = -1
			state.lastPre = d.now
		}
	}
	d.stats.Precharges++
	d.now += d.cfg.Timing.TCK
	return nil
}

func (d *Device) checkPC(ch, pc int) error {
	g := d.cfg.Geometry
	if ch < 0 || ch >= g.Channels || pc < 0 || pc >= g.PseudoChannels {
		return fmt.Errorf("hbm: pseudo channel ch%d.pc%d: %w", ch, pc, ErrAddress)
	}
	return nil
}

// columnAt is the address proof of a column access.
func (d *Device) columnAt(b addr.BankAddr, col int) (*bankState, error) {
	bank, err := d.bankAt(b)
	if err != nil {
		return nil, err
	}
	if col < 0 || col >= d.cfg.Geometry.Columns {
		return nil, fmt.Errorf("hbm: column %d: %w", col, ErrAddress)
	}
	return bank, nil
}

// columnAccess is the bank-state and timing check every column access
// core makes first.
func (d *Device) columnAccess(bank *bankState) error {
	if bank.open == -1 {
		return fmt.Errorf("hbm: column access to precharged bank %v: %w", bank.addr, ErrState)
	}
	if d.now-bank.lastAct < d.cfg.Timing.TRCD {
		return fmt.Errorf("hbm: column access to %v violates tRCD: %w", bank.addr, ErrTiming)
	}
	return nil
}

// Read returns the data of one column of the open row. Bitflips were
// already materialized when the row was sensed at activation.
func (d *Device) Read(b addr.BankAddr, col int) ([]byte, error) {
	out := make([]byte, d.cfg.Geometry.ColumnBytes)
	if err := d.ReadInto(b, col, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto reads one column of the open row into a caller-provided buffer
// of exactly ColumnBytes, avoiding Read's per-call allocation — the hot
// read-out path (bender.Runner, through ReadResolved) reuses one arena
// across a whole program.
func (d *Device) ReadInto(b addr.BankAddr, col int, dst []byte) error {
	bank, err := d.columnAt(b, col)
	if err != nil {
		return err
	}
	return d.read(bank, col, dst)
}

// ReadResolved is ReadInto on the bank at flat index bank, without the
// address proof.
func (d *Device) ReadResolved(bank, col int, dst []byte) error {
	return d.read(&d.banks[bank], col, dst)
}

// read is the core of ReadInto.
func (d *Device) read(bank *bankState, col int, dst []byte) error {
	if err := d.columnAccess(bank); err != nil {
		return err
	}
	n := d.cfg.Geometry.ColumnBytes
	if len(dst) != n {
		return fmt.Errorf("hbm: read into %d bytes, column holds %d: %w", len(dst), n, ErrAddress)
	}
	rs := d.row(bank, bank.open)
	if rs.data == nil {
		clear(dst) // unmaterialized row: power-up pattern
	} else {
		copy(dst, rs.data[col*n:(col+1)*n])
	}
	d.stats.Reads++
	d.now += d.cfg.Timing.TCK
	return nil
}

// Write stores data into one column of the open row, fully recharging the
// written cells.
func (d *Device) Write(b addr.BankAddr, col int, data []byte) error {
	bank, err := d.columnAt(b, col)
	if err != nil {
		return err
	}
	return d.write(bank, col, data)
}

// WriteResolved is Write on the bank at flat index bank, without the
// address proof.
func (d *Device) WriteResolved(bank, col int, data []byte) error {
	return d.write(&d.banks[bank], col, data)
}

// write is the core of Write.
func (d *Device) write(bank *bankState, col int, data []byte) error {
	if err := d.columnAccess(bank); err != nil {
		return err
	}
	n := d.cfg.Geometry.ColumnBytes
	if len(data) != n {
		return fmt.Errorf("hbm: write of %d bytes, column holds %d: %w", len(data), n, ErrAddress)
	}
	rs := d.row(bank, bank.open)
	copy(rs.bytes(d)[col*n:(col+1)*n], data)
	d.stats.Writes++
	d.now += d.cfg.Timing.TCK
	return nil
}

// WriteRow stores one column's data into every column of the open row:
// the DRAM Bender WRROW. It leaves exactly the state, counters and clock
// of Columns back-to-back Writes of data. Those writes share the bank, the
// open row and the activation time, and each only advances the clock, so
// the first one's access check stands for all of them.
func (d *Device) WriteRow(b addr.BankAddr, data []byte) error {
	bank, err := d.bankAt(b)
	if err != nil {
		return err
	}
	return d.writeRow(bank, data)
}

// WriteRowResolved is WriteRow on the bank at flat index bank, without
// the address proof.
func (d *Device) WriteRowResolved(bank int, data []byte) error {
	return d.writeRow(&d.banks[bank], data)
}

// writeRow is the core of WriteRow.
func (d *Device) writeRow(bank *bankState, data []byte) error {
	if err := d.columnAccess(bank); err != nil {
		return err
	}
	g := d.cfg.Geometry
	n := g.ColumnBytes
	if len(data) != n {
		return fmt.Errorf("hbm: write of %d bytes, column holds %d: %w", len(data), n, ErrAddress)
	}
	row := d.row(bank, bank.open).bytes(d)
	copy(row, data)
	for filled := n; filled < len(row); filled *= 2 {
		copy(row[filled:], row[:filled])
	}
	d.stats.Writes += int64(g.Columns)
	d.now += int64(g.Columns) * d.cfg.Timing.TCK
	return nil
}

// Refresh issues one periodic REF to a pseudo channel: it refreshes the
// next chunk of rows in every bank, then lets the in-DRAM mitigations
// (the proprietary TRR engine and, if engaged, the documented TRR mode)
// perform their victim refreshes.
func (d *Device) Refresh(ch, pc int) error {
	if err := d.checkPC(ch, pc); err != nil {
		return err
	}
	p := d.pcAt(ch, pc)
	if d.now-p.lastRef < d.cfg.Timing.TRFC {
		return fmt.Errorf("hbm: refresh ch%d.pc%d violates tRFC: %w", ch, pc, ErrTiming)
	}
	for i := range p.banks {
		if p.banks[i].open != -1 {
			return fmt.Errorf("hbm: refresh ch%d.pc%d with bank %d open: %w", ch, pc, i, ErrState)
		}
	}
	g := d.cfg.Geometry
	rowsPerRef := (g.Rows + d.cfg.Timing.RefsPerWindow() - 1) / d.cfg.Timing.RefsPerWindow()
	for i := range p.banks {
		bank := &p.banks[i]
		for k := 0; k < rowsPerRef; k++ {
			phys := (p.refPtr + k) % g.Rows
			if bank.rowAt(phys) != nil {
				d.senseAndRestore(bank, phys, d.now, true)
			}
		}
	}
	p.refPtr = (p.refPtr + rowsPerRef) % g.Rows

	// Proprietary TRR: victim refreshes every RefPeriod REFs.
	for _, vr := range p.eng.OnRefresh() {
		bank := &p.banks[vr.Bank]
		for _, phys := range vr.Rows {
			d.senseAndRestore(bank, phys, d.now, true)
			d.stats.TRRVictimRefreshes++
		}
	}
	// Documented TRR mode, if the controller engaged it.
	if p.doc.Active() && p.docBank >= 0 {
		bank := &p.banks[p.docBank]
		for _, phys := range p.doc.OnRefresh() {
			d.senseAndRestore(bank, phys, d.now, true)
			d.stats.TRRVictimRefreshes++
		}
	}

	p.lastRef = d.now
	d.stats.Refreshes++
	d.now += d.cfg.Timing.TCK
	return nil
}

// EnterTRRMode engages the documented (JESD235) TRR mode on a pseudo
// channel: subsequent REFs refresh the neighbours of the given logical
// target rows in the given bank.
func (d *Device) EnterTRRMode(ch, pc, bank int, targets []int) error {
	if err := d.checkPC(ch, pc); err != nil {
		return err
	}
	if bank < 0 || bank >= d.cfg.Geometry.Banks {
		return fmt.Errorf("hbm: TRR mode bank %d: %w", bank, ErrAddress)
	}
	phys := make([]int, len(targets))
	for i, t := range targets {
		if t < 0 || t >= d.cfg.Geometry.Rows {
			return fmt.Errorf("hbm: TRR mode target row %d: %w", t, ErrAddress)
		}
		phys[i] = d.mapper.ToPhysical(t)
	}
	p := d.pcAt(ch, pc)
	if err := p.doc.Enter(phys); err != nil {
		return fmt.Errorf("hbm: %w", err)
	}
	p.docBank = bank
	return nil
}

// ExitTRRMode disengages the documented TRR mode.
func (d *Device) ExitTRRMode(ch, pc int) error {
	if err := d.checkPC(ch, pc); err != nil {
		return err
	}
	p := d.pcAt(ch, pc)
	p.doc.Exit()
	p.docBank = -1
	return nil
}

// WriteModeRegister sets a channel's mode register, e.g. clearing the ECC
// enable bit as the paper's setup does.
func (d *Device) WriteModeRegister(ch, index int, value uint32) error {
	if ch < 0 || ch >= d.cfg.Geometry.Channels || index < 0 || index >= NumModeRegisters {
		return fmt.Errorf("hbm: mode register ch%d MR%d: %w", ch, index, ErrAddress)
	}
	d.modeRegs[ch][index] = value
	d.now += d.cfg.Timing.TCK
	return nil
}

// ReadModeRegister returns a channel's mode register value.
func (d *Device) ReadModeRegister(ch, index int) (uint32, error) {
	if ch < 0 || ch >= d.cfg.Geometry.Channels || index < 0 || index >= NumModeRegisters {
		return 0, fmt.Errorf("hbm: mode register ch%d MR%d: %w", ch, index, ErrAddress)
	}
	return d.modeRegs[ch][index], nil
}

func (d *Device) eccEnabled(ch int) bool {
	return d.modeRegs[ch][MRECC]&MRECCEnable != 0
}

// applyDisturb adds scale activations' worth of disturbance from
// aggressor physRow to its physical neighbours. Disturbance does not
// cross subarray boundaries: rows at a subarray edge are adjacent to the
// sense amplifier stripe, not to another row — the property the paper
// exploits to reverse-engineer subarray boundaries.
//
// When VerticalCoupling is configured (the paper's cross-channel
// interference question), a fraction of the distance-1 disturbance leaks
// to the same physical row of the vertically adjacent channels.
func (d *Device) applyDisturb(bank *bankState, physRow int, scale float64) {
	radius := d.fm.BlastRadius()
	lo, hi := d.layout.Bounds(physRow)
	for dist := 1; dist <= radius; dist++ {
		w := d.fm.DistanceWeight(dist) * scale
		if victim := physRow - dist; victim >= lo {
			d.row(bank, victim).disturb += w
		}
		if victim := physRow + dist; victim < hi {
			d.row(bank, victim).disturb += w
		}
	}
	if vc := d.cfg.Fault.VerticalCoupling; vc > 0 {
		w := vc * d.fm.DistanceWeight(1) * scale
		g := d.cfg.Geometry
		for _, vch := range [2]int{bank.addr.Channel - 2, bank.addr.Channel + 2} {
			if vch < 0 || vch >= g.Channels {
				continue
			}
			vb := bank.addr
			vb.Channel = vch
			d.row(&d.banks[vb.Flat(g)], physRow).disturb += w
		}
	}
}

// doseOn returns the disturbance applyDisturb(bank, aggressor, scale)
// adds to physical row victim of the same bank: the distance weight times
// scale within the aggressor's subarray and blast radius, 0 beyond them.
func (d *Device) doseOn(aggressor, victim int, scale float64) float64 {
	lo, hi := d.layout.Bounds(aggressor)
	if victim < lo || victim >= hi {
		return 0
	}
	return d.fm.DistanceWeight(max(victim-aggressor, aggressor-victim)) * scale
}

// HammerPairHold performs n double-sided hammers: n alternating
// activate+precharge pairs of the two logical aggressor rows, each
// activation held open for holdPS (>= tRAS; tRAS is minimum timing,
// anything longer accumulates RowPress amplification) before its
// precharge. It is the bulk equivalent of the ACT/PRE loop a DRAM Bender
// program runs, applied in one step for simulation speed; each
// activation occupies holdPS+tRP.
func (d *Device) HammerPairHold(b addr.BankAddr, rowA, rowB, n int, holdPS int64) error {
	return d.hammerAt(b, [2]int{rowA, rowB}, 2, n, holdPS)
}

// HammerSingleHold is HammerPairHold's single-sided form: n activations
// of one logical aggressor row.
func (d *Device) HammerSingleHold(b addr.BankAddr, row, n int, holdPS int64) error {
	return d.hammerAt(b, [2]int{row}, 1, n, holdPS)
}

// HammerResolved is HammerSingleHold (nrows 1) or HammerPairHold (nrows
// 2) of the aggressors rows[:nrows] on the bank at flat index bank,
// without the address proof.
func (d *Device) HammerResolved(bank int, rows [2]int, nrows, n int, holdPS int64) error {
	return d.hammer(&d.banks[bank], rows, nrows, n, holdPS)
}

// hammerAt proves a hammer burst's address and runs it on the core.
func (d *Device) hammerAt(b addr.BankAddr, logicalRows [2]int, nrows, n int, holdPS int64) error {
	bank, err := d.bankAt(b)
	if err != nil {
		return err
	}
	for _, r := range logicalRows[:nrows] {
		if r < 0 || r >= d.cfg.Geometry.Rows {
			return fmt.Errorf("hbm: hammer row %d: %w", r, ErrAddress)
		}
	}
	return d.hammer(bank, logicalRows, nrows, n, holdPS)
}

// hammer is the core of the hammer bursts: one or two aggressors.
// Aggressors arrive in a fixed-size array (never more than two) so the
// hot probe loop stays allocation-free.
func (d *Device) hammer(bank *bankState, logicalRows [2]int, nrows, n int, holdPS int64) error {
	b, pc := bank.addr, bank.pc
	if n <= 0 {
		return fmt.Errorf("hbm: hammer count %d must be positive: %w", n, ErrAddress)
	}
	if holdPS < d.cfg.Timing.TRAS {
		return fmt.Errorf("hbm: hammer hold %d ps violates tRAS: %w", holdPS, ErrTiming)
	}
	if bank.open != -1 {
		return fmt.Errorf("hbm: hammer %v while row %d open: %w", b, bank.open, ErrState)
	}
	t := d.cfg.Timing
	switch {
	case d.now-bank.lastPre < t.TRP:
		return fmt.Errorf("hbm: hammer %v violates tRP: %w", b, ErrTiming)
	case d.now-bank.lastAct < t.TRC:
		return fmt.Errorf("hbm: hammer %v violates tRC: %w", b, ErrTiming)
	case d.now-pc.lastRef < t.TRFC:
		return fmt.Errorf("hbm: hammer %v violates tRFC: %w", b, ErrTiming)
	}
	var physArr [2]int
	phys := physArr[:nrows]
	for i, r := range logicalRows[:nrows] {
		phys[i] = d.mapper.ToPhysical(r)
		for j := 0; j < i; j++ {
			if phys[j] == phys[i] {
				// Boxing the array (not a slice of the parameter) keeps the
				// aggressor array off the heap on the no-error path; only
				// nrows==2 can reach here, so it renders identically.
				return fmt.Errorf("hbm: hammer rows %v map to the same physical row: %w", logicalRows, ErrAddress)
			}
		}
	}

	// Each aggressor is sensed on its first activation: accumulated
	// faults materialize and its decay clock resets.
	for _, p := range phys {
		d.senseAndRestore(bank, p, d.now, true)
	}
	// Per-activation disturbance: the base unit plus any RowPress
	// amplification from holding the row open beyond tRAS.
	perAct := d.actDose(holdPS)
	for _, p := range phys {
		d.applyDisturb(bank, p, float64(n)*perAct)
		pc.eng.ObserveActivate(b.Bank, p)
	}
	// The aggressors alternate, so each is re-sensed every other
	// activation: whatever disturbance they receive from each other never
	// accumulates. Clear it and stamp their charge as restored at the end
	// of the burst. The only residue is from the final round: aggressors
	// activated after row i's last activation each disturb it once more.
	actPeriod := holdPS + t.TRP
	end := d.now + int64(n)*int64(nrows)*actPeriod
	for _, p := range phys {
		rs := d.row(bank, p)
		rs.disturb = 0
		rs.lastSense = end
	}
	for i, p := range phys {
		for _, q := range phys[i+1:] {
			dist := q - p
			if dist < 0 {
				dist = -dist
			}
			if d.layout.SameSubarray(p, q) {
				d.row(bank, p).disturb += d.fm.DistanceWeight(dist) * perAct
			}
		}
	}
	d.stats.Acts += int64(n * nrows)
	d.stats.Precharges += int64(n * nrows)
	// Match the explicit loop's bookkeeping: its final iteration issues
	// the last ACT at end-actPeriod and the last PRE at end-tRP (the
	// trailing tRP wait is part of the loop body).
	d.now = end
	bank.lastAct = end - actPeriod
	bank.lastPre = end - t.TRP
	bank.open = -1
	return nil
}
