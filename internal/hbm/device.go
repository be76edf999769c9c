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
// compute them: an overwrite Activate's sense computes none, so flips a
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
	// wordScratch is FirstFlipBurst's.
	flipScratch []int
	wordScratch []int
	// spare is the free list of row-sized buffers: a uniform WriteRow
	// hands its row's buffer back, and the next row to materialize an
	// image takes it.
	spare [][]byte
}

type pseudoChannel struct {
	banks   []bankState // this pseudo channel's run of Device.banks
	eng     *trr.Engine
	lastRef int64
	refPtr  int // next physical row to be refreshed in every bank
}

type bankState struct {
	addr    addr.BankAddr  // the bank's own address, for the fault model and errors
	pc      *pseudoChannel // the pseudo channel the bank belongs to
	open    int            // physical row latched in the row buffer, -1 when precharged
	lastAct int64
	lastPre int64
	// rows is the bank's page directory: entry p holds physical rows
	// p*rowsPerPage to (p+1)*rowsPerPage-1 once any of them has been
	// touched, nil before. The directory itself materializes on the
	// bank's first touched row; untouched banks cost nothing.
	rows []*rowPage
}

// rowsPerPage is how many consecutive physical rows one page of a bank's
// row directory holds. A probe touches the 17 rows around its victim and
// the blast radius around its aggressors, so a page this size is mostly
// used where it is allocated, and the directory stays small (1,024
// entries for the paper chip's 16,384 rows).
const rowsPerPage = 16

// rowPage holds rowsPerPage consecutive rows of a bank by value. Bit k of
// live is set once row k has been touched.
type rowPage struct {
	live uint16
	rows [rowsPerPage]rowState
}

// rowAt returns the materialized state of a physical row, or nil when the
// row (or the whole bank) has never been touched.
func (bk *bankState) rowAt(phys int) *rowState {
	if bk.rows == nil {
		return nil
	}
	pg := bk.rows[phys/rowsPerPage]
	if pg == nil || pg.live&(1<<(phys%rowsPerPage)) == 0 {
		return nil
	}
	return &pg.rows[phys%rowsPerPage]
}

// rowState tracks the mutable physical condition of one row. Rows
// materialize lazily: an untouched row holds all-zero data, fully charged
// at power-up (time 0).
type rowState struct {
	img       rowImage
	lastSense int64   // when charge was last restored
	disturb   float64 // disturbance units accumulated since lastSense
}

// rowImage is a row's data. A nil data slice means every byte holds fill:
// the power-up pattern is the zero image, and a row written in full with
// one repeated byte — every row a Table 1 probe sets up — holds no
// row-sized buffer. Only a non-uniform write or a committed bitflip
// materializes one.
type rowImage struct {
	data []byte
	fill byte
}

// bit returns bit i of the image.
func (im rowImage) bit(i int) byte {
	b := im.fill
	if im.data != nil {
		b = im.data[i>>3]
	}
	return (b >> (uint(i) & 7)) & 1
}

// bytes returns the row's data buffer, materializing it from the fill on
// first real need (a single-column write or a committed bitflip).
func (rs *rowState) bytes(d *Device) []byte {
	if rs.img.data == nil {
		rs.img.data = d.newImage()
		repeat(rs.img.data, []byte{rs.img.fill})
	}
	return rs.img.data
}

// setFill makes the row hold fill in every byte, handing any buffer it
// held back to the device's free list.
func (rs *rowState) setFill(d *Device, fill byte) {
	if rs.img.data != nil {
		d.spare = append(d.spare, rs.img.data)
	}
	rs.img = rowImage{fill: fill}
}

// newImage returns a row-sized buffer of unspecified contents: one from
// the free list when it holds any, a new one otherwise.
func (d *Device) newImage() []byte {
	if n := len(d.spare); n > 0 {
		buf := d.spare[n-1]
		d.spare = d.spare[:n-1]
		return buf
	}
	return make([]byte, d.cfg.Geometry.RowBytes())
}

// repeat fills buf with copies of a non-empty pattern no longer than it,
// doubling the filled prefix with each copy.
func repeat(buf, pattern []byte) {
	for n := copy(buf, pattern); n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
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

// Bank commands. Each bank command is one method that takes its bank as
// the BankAddr.Flat index Program.Validate resolves, checks that index and
// its row or column with one compare each (ErrAddress when out of range),
// and then makes the command's timing and bank-state checks and applies
// its effects. A command refused for its address changes no state,
// counter or clock.

// errBank reports a flat bank index outside the device.
func errBank(bank int) error { return fmt.Errorf("hbm: bank %d: %w", bank, ErrAddress) }

// pcAt returns a pseudo channel the caller has proven in range.
func (d *Device) pcAt(ch, pc int) *pseudoChannel {
	return &d.pcs[ch*d.cfg.Geometry.PseudoChannels+pc]
}

// row returns the state of a physical row, materializing it (and its page,
// and the bank's directory) on first touch.
func (d *Device) row(bank *bankState, physRow int) *rowState {
	if bank.rows == nil {
		bank.rows = make([]*rowPage, (d.cfg.Geometry.Rows+rowsPerPage-1)/rowsPerPage)
	}
	pg := bank.rows[physRow/rowsPerPage]
	if pg == nil {
		pg = new(rowPage)
		bank.rows[physRow/rowsPerPage] = pg
	}
	pg.live |= 1 << (physRow % rowsPerPage)
	return &pg.rows[physRow%rowsPerPage]
}

// Activate opens a logical row: it checks tRP/tRC/tRFC, senses the row
// (materializing any accumulated bitflips and restoring charge), disturbs
// physical neighbours, and feeds the TRR sampler.
//
// With overwrite set, the caller promises to rewrite the row in full
// before anything reads it: every column written, then the bank's
// precharge, with no read in between. The activation then does everything
// else it does — timing checks, charge restore, neighbour disturbance, the
// TRR sample, the activation count and the clock — except computing the
// sense's bitflips. Those flips are unobservable: no other row of the bank
// can be sensed while this one is open, and every bit is overwritten
// before the row can be read or its data can couple into a neighbour's
// sense. The DRAM Bender runner sets it for such overwrite blocks.
func (d *Device) Activate(bank, logicalRow int, overwrite bool) error {
	if uint(bank) >= uint(len(d.banks)) {
		return errBank(bank)
	}
	if uint(logicalRow) >= uint(d.cfg.Geometry.Rows) {
		return fmt.Errorf("hbm: activate row %d: %w", logicalRow, ErrAddress)
	}
	bk := &d.banks[bank]
	if bk.open != -1 {
		return fmt.Errorf("hbm: activate %v while row %d open: %w", bk.addr, bk.open, ErrState)
	}
	t := &d.cfg.Timing
	switch {
	case d.now-bk.lastPre < t.TRP:
		return fmt.Errorf("hbm: activate %v violates tRP: %w", bk.addr, ErrTiming)
	case d.now-bk.lastAct < t.TRC:
		return fmt.Errorf("hbm: activate %v violates tRC: %w", bk.addr, ErrTiming)
	case d.now-bk.pc.lastRef < t.TRFC:
		return fmt.Errorf("hbm: activate %v violates tRFC: %w", bk.addr, ErrTiming)
	}
	phys := d.mapper.ToPhysical(logicalRow)
	d.senseAndRestore(bk, phys, d.now, !overwrite)
	d.applyDisturb(bk, phys, 1)
	bk.pc.eng.ObserveActivate(bk.addr.Bank, phys)
	bk.open = phys
	bk.lastAct = d.now
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
func (d *Device) Precharge(bank int) error {
	if uint(bank) >= uint(len(d.banks)) {
		return errBank(bank)
	}
	bk := &d.banks[bank]
	if err := d.checkTRAS(bk, "precharge"); err != nil {
		return err
	}
	d.closeRow(bk)
	d.stats.Precharges++
	d.now += d.cfg.Timing.TCK
	return nil
}

// PrechargeAll precharges every bank in a pseudo channel: one command, so
// one precharge count and one clock step. A bank that may not close yet
// refuses the whole command before any bank closes.
func (d *Device) PrechargeAll(ch, pc int) error {
	if err := d.checkPC(ch, pc); err != nil {
		return err
	}
	banks := d.pcAt(ch, pc).banks
	for i := range banks {
		if err := d.checkTRAS(&banks[i], "precharge-all"); err != nil {
			return err
		}
	}
	for i := range banks {
		d.closeRow(&banks[i])
	}
	d.stats.Precharges++
	d.now += d.cfg.Timing.TCK
	return nil
}

// checkTRAS refuses to close a bank's open row before tRAS, for the
// command cmd names in its error.
func (d *Device) checkTRAS(bank *bankState, cmd string) error {
	if bank.open != -1 && d.now-bank.lastAct < d.cfg.Timing.TRAS {
		return fmt.Errorf("hbm: %s %v violates tRAS: %w", cmd, bank.addr, ErrTiming)
	}
	return nil
}

// closeRow closes a bank's open row, if it has one, after checkTRAS has
// allowed it: the RowPress disturbance the hold earned, and the
// precharged state.
func (d *Device) closeRow(bank *bankState) {
	if bank.open == -1 {
		return
	}
	if extra := d.rowPressExtra(d.now - bank.lastAct); extra > 0 {
		d.applyDisturb(bank, bank.open, extra)
	}
	bank.open = -1
	bank.lastPre = d.now
}

func (d *Device) checkPC(ch, pc int) error {
	g := d.cfg.Geometry
	if ch < 0 || ch >= g.Channels || pc < 0 || pc >= g.PseudoChannels {
		return fmt.Errorf("hbm: pseudo channel ch%d.pc%d: %w", ch, pc, ErrAddress)
	}
	return nil
}

// columnAccess proves a column access's bank and column in range and
// makes the bank-state and timing check every column access makes first,
// returning the bank.
func (d *Device) columnAccess(bank, col int) (*bankState, error) {
	if uint(bank) >= uint(len(d.banks)) {
		return nil, errBank(bank)
	}
	if uint(col) >= uint(d.cfg.Geometry.Columns) {
		return nil, fmt.Errorf("hbm: column %d: %w", col, ErrAddress)
	}
	bk := &d.banks[bank]
	if bk.open == -1 {
		return nil, fmt.Errorf("hbm: column access to precharged bank %v: %w", bk.addr, ErrState)
	}
	if d.now-bk.lastAct < d.cfg.Timing.TRCD {
		return nil, fmt.Errorf("hbm: column access to %v violates tRCD: %w", bk.addr, ErrTiming)
	}
	return bk, nil
}

// Read reads one column of the open row into dst, a caller-provided
// buffer of exactly ColumnBytes, so the hot read-out path (the DRAM
// Bender runner) reuses one arena across a whole program. Bitflips were
// already materialized when the row was sensed at activation.
func (d *Device) Read(bank, col int, dst []byte) error {
	bk, err := d.columnAccess(bank, col)
	if err != nil {
		return err
	}
	n := d.cfg.Geometry.ColumnBytes
	if len(dst) != n {
		return fmt.Errorf("hbm: read into %d bytes, column holds %d: %w", len(dst), n, ErrAddress)
	}
	if img := d.row(bk, bk.open).img; img.data == nil {
		repeat(dst, []byte{img.fill})
	} else {
		copy(dst, img.data[col*n:(col+1)*n])
	}
	d.stats.Reads++
	d.now += d.cfg.Timing.TCK
	return nil
}

// Write stores data into one column of the open row, fully recharging the
// written cells.
func (d *Device) Write(bank, col int, data []byte) error {
	bk, err := d.columnAccess(bank, col)
	if err != nil {
		return err
	}
	n := d.cfg.Geometry.ColumnBytes
	if len(data) != n {
		return fmt.Errorf("hbm: write of %d bytes, column holds %d: %w", len(data), n, ErrAddress)
	}
	rs := d.row(bk, bk.open)
	copy(rs.bytes(d)[col*n:(col+1)*n], data)
	d.stats.Writes++
	d.now += d.cfg.Timing.TCK
	return nil
}

// WriteRow stores one column's data into every column of the open row:
// the DRAM Bender WRROW. It leaves exactly the state, counters and clock
// of Columns back-to-back Writes of data. Those writes share the bank, the
// open row and the activation time, and each only advances the clock, so
// the first one's access check (column 0's) stands for all of them.
func (d *Device) WriteRow(bank int, data []byte) error {
	bk, err := d.columnAccess(bank, 0)
	if err != nil {
		return err
	}
	g := d.cfg.Geometry
	n := g.ColumnBytes
	if len(data) != n {
		return fmt.Errorf("hbm: write of %d bytes, column holds %d: %w", len(data), n, ErrAddress)
	}
	rs := d.row(bk, bk.open)
	if uniform(data) {
		rs.setFill(d, data[0])
	} else {
		if rs.img.data == nil {
			rs.img.data = d.newImage()
		}
		repeat(rs.img.data, data)
	}
	d.stats.Writes += int64(g.Columns)
	d.now += int64(g.Columns) * d.cfg.Timing.TCK
	return nil
}

// uniform reports whether every byte of a non-empty buf equals its first.
func uniform(buf []byte) bool {
	for _, b := range buf[1:] {
		if b != buf[0] {
			return false
		}
	}
	return true
}

// Refresh issues one periodic REF to a pseudo channel: it refreshes the
// next chunk of rows in every bank, then lets the in-DRAM mitigation
// (the proprietary TRR engine) perform its victim refreshes.
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
	p.lastRef = d.now
	d.stats.Refreshes++
	d.now += d.cfg.Timing.TCK
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

// Hammer performs n hammers of the logical aggressors rows[:nrows], one
// (single-sided) or two (double-sided): n rounds of activate+precharge of
// each aggressor in turn, each activation held open for holdPS (>= tRAS;
// tRAS is minimum timing, anything longer accumulates RowPress
// amplification) before its precharge. It is the bulk equivalent of the
// ACT/PRE loop a DRAM Bender program runs, applied in one step for
// simulation speed; each activation occupies holdPS+tRP. Aggressors arrive
// in a fixed-size array so the hot probe loop stays allocation-free.
func (d *Device) Hammer(bank int, rows [2]int, nrows int, n, holdPS int64) error {
	if uint(bank) >= uint(len(d.banks)) {
		return errBank(bank)
	}
	if uint(nrows-1) > 1 {
		return fmt.Errorf("hbm: hammer of %d aggressors: %w", nrows, ErrAddress)
	}
	for _, r := range rows[:nrows] {
		if uint(r) >= uint(d.cfg.Geometry.Rows) {
			return fmt.Errorf("hbm: hammer row %d: %w", r, ErrAddress)
		}
	}
	bk := &d.banks[bank]
	b, pc := bk.addr, bk.pc
	if n <= 0 {
		return fmt.Errorf("hbm: hammer count %d must be positive: %w", n, ErrAddress)
	}
	if holdPS < d.cfg.Timing.TRAS {
		return fmt.Errorf("hbm: hammer hold %d ps violates tRAS: %w", holdPS, ErrTiming)
	}
	if bk.open != -1 {
		return fmt.Errorf("hbm: hammer %v while row %d open: %w", b, bk.open, ErrState)
	}
	t := d.cfg.Timing
	switch {
	case d.now-bk.lastPre < t.TRP:
		return fmt.Errorf("hbm: hammer %v violates tRP: %w", b, ErrTiming)
	case d.now-bk.lastAct < t.TRC:
		return fmt.Errorf("hbm: hammer %v violates tRC: %w", b, ErrTiming)
	case d.now-pc.lastRef < t.TRFC:
		return fmt.Errorf("hbm: hammer %v violates tRFC: %w", b, ErrTiming)
	}
	var physArr [2]int
	phys := physArr[:nrows]
	for i, r := range rows[:nrows] {
		phys[i] = d.mapper.ToPhysical(r)
		for j := 0; j < i; j++ {
			if phys[j] == phys[i] {
				// Boxing the array (not a slice of the parameter) keeps the
				// aggressor array off the heap on the no-error path; only
				// nrows==2 can reach here, so it renders identically.
				return fmt.Errorf("hbm: hammer rows %v map to the same physical row: %w", rows, ErrAddress)
			}
		}
	}

	// Each aggressor is sensed on its first activation: accumulated
	// faults materialize and its decay clock resets.
	for _, p := range phys {
		d.senseAndRestore(bk, p, d.now, true)
	}
	// Per-activation disturbance: the base unit plus any RowPress
	// amplification from holding the row open beyond tRAS.
	perAct := d.actDose(holdPS)
	for _, p := range phys {
		d.applyDisturb(bk, p, float64(n)*perAct)
		pc.eng.ObserveActivate(b.Bank, p)
	}
	// The aggressors alternate, so each is re-sensed every other
	// activation: whatever disturbance they receive from each other never
	// accumulates. Clear it and stamp their charge as restored at the end
	// of the burst. The only residue is from the final round: aggressors
	// activated after row i's last activation each disturb it once more.
	actPeriod := holdPS + t.TRP
	end := d.now + n*int64(nrows)*actPeriod
	for _, p := range phys {
		rs := d.row(bk, p)
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
				d.row(bk, p).disturb += d.fm.DistanceWeight(dist) * perAct
			}
		}
	}
	d.stats.Acts += n * int64(nrows)
	d.stats.Precharges += n * int64(nrows)
	// Match the explicit loop's bookkeeping: its final iteration issues
	// the last ACT at end-actPeriod and the last PRE at end-tRP (the
	// trailing tRP wait is part of the loop body).
	d.now = end
	bk.lastAct = end - actPeriod
	bk.lastPre = end - t.TRP
	bk.open = -1
	return nil
}
