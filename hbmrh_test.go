package hbmrh_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	hbmrh "github.com/safari-repro/hbmrh"
)

// These tests exercise the public facade end to end, the way a downstream
// user would.

func TestOpenAndGeometry(t *testing.T) {
	d, err := hbmrh.Open(hbmrh.PaperChip())
	if err != nil {
		t.Fatal(err)
	}
	g := d.Geometry()
	if g.Channels != 8 || g.PseudoChannels != 2 || g.Banks != 16 || g.Rows != 16384 || g.Columns != 32 {
		t.Fatalf("paper geometry wrong: %+v", g)
	}
	if g.TotalBytes() != 4<<30 {
		t.Fatalf("capacity %d, want 4 GiB", g.TotalBytes())
	}
}

func TestPublicHammerFlow(t *testing.T) {
	h, err := hbmrh.NewHarnessFromConfig(hbmrh.SmallChip())
	if err != nil {
		t.Fatal(err)
	}
	layout := h.Device().Config().Layout()
	victim := layout.Start(1) + layout.Size(1)/2
	b := hbmrh.BankAddr{Channel: 7, PseudoChannel: 0, Bank: 0}
	res, err := h.BER(b, victim, hbmrh.Table1()[1], hbmrh.DefaultHammers)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips == 0 {
		t.Fatal("no flips through the public API")
	}
}

func TestPublicRowIO(t *testing.T) {
	h, err := hbmrh.NewHarnessFromConfig(hbmrh.SmallChip())
	if err != nil {
		t.Fatal(err)
	}
	b := hbmrh.BankAddr{Channel: 2, PseudoChannel: 1, Bank: 3}
	res, err := h.Exec(func(bb *hbmrh.BenderBuilder) {
		bb.WriteRowFill(b, 7, 0xA5)
		bb.ReadRowOut(b, 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Reads); n != h.Device().Geometry().Columns {
		t.Fatalf("%d column reads, want one per column", n)
	}
	if n := hbmrh.CountFlips(res.Reads, 0xA5); n != 0 {
		t.Fatalf("round trip flipped %d bits", n)
	}
}

func TestPublicProgramAssembly(t *testing.T) {
	d, err := hbmrh.Open(hbmrh.SmallChip())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := hbmrh.AssembleProgram("mrs 0 4 0x0\nref 0 0\n", d.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	r := hbmrh.NewBenderRunner(d)
	if _, err := r.Run(d, d.Geometry(), prog); err != nil {
		t.Fatal(err)
	}
	text := hbmrh.DisassembleProgram(prog)
	if !strings.Contains(text, "ref 0 0") {
		t.Fatalf("disassembly wrong: %q", text)
	}
}

func TestPublicThermalRig(t *testing.T) {
	d, err := hbmrh.Open(hbmrh.SmallChip())
	if err != nil {
		t.Fatal(err)
	}
	ctl := hbmrh.NewThermalController(d, 25)
	if err := ctl.SettleTo(85, 0.5, 5, 600); err != nil {
		t.Fatal(err)
	}
	if got := d.Temperature(); got < 84 || got > 86 {
		t.Fatalf("device at %.2f C after settling to 85", got)
	}
}

func TestPublicTRRStudy(t *testing.T) {
	a, err := hbmrh.RunExperiment("trrstudy", hbmrh.ExperimentOptions{
		Cfg:  hbmrh.SmallChip(),
		Bank: hbmrh.BankAddr{Channel: 0, PseudoChannel: 0, Bank: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if period, periodic := hbmrh.TRRPeriod(a); !periodic || period != 17 {
		t.Fatalf("period (%d, %v), want (17, true)", period, periodic)
	}
}

func TestPublicRetentionProfiler(t *testing.T) {
	h, err := hbmrh.NewHarnessFromConfig(hbmrh.SmallChip()) // ECC off
	if err != nil {
		t.Fatal(err)
	}
	p := hbmrh.NewRetentionProfiler(h)
	T, err := p.RowRetention(hbmrh.BankAddr{Channel: 0, PseudoChannel: 0, Bank: 0}, 33)
	if err != nil {
		t.Fatal(err)
	}
	if T <= 0 {
		t.Fatal("non-positive retention time")
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	if len(hbmrh.Experiments()) != 9 {
		t.Fatalf("registry has %d experiments", len(hbmrh.Experiments()))
	}
	if _, err := hbmrh.LookupExperiment("multichip"); err != nil {
		t.Fatal(err)
	}
	// Run a two-shard rowpress through the facade, serialize the shards,
	// and merge them back through the file-level API (glob expansion and
	// canonical ordering included).
	dir := t.TempDir()
	opts := hbmrh.ExperimentOptions{Cfg: hbmrh.SmallChip(), Rows: 2, Hammers: 30000}
	single, err := hbmrh.RunExperiment("rowpress", opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		o := opts
		o.Shard, o.ShardCount = s, 2
		a, err := hbmrh.RunExperiment("rowpress", o)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.WriteFile(filepath.Join(dir, fmt.Sprintf("shard%d.json", s))); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := hbmrh.MergeShardFiles([]string{filepath.Join(dir, "shard*.json")})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("merged shard files differ from the single-process artifact")
	}
	if out := hbmrh.RenderExperimentArtifact(merged); !strings.Contains(out, "hold_x") {
		t.Fatalf("render missing hold points:\n%s", out)
	}
}
