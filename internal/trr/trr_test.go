package trr

import (
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
)

func defaultCfg() config.TRR {
	return config.TRR{Enabled: true, RefPeriod: 17, SamplerSlots: 1, NeighborRadius: 1}
}

func newEngine(t *testing.T, cfg config.TRR) *Engine {
	t.Helper()
	e, err := NewEngine(cfg, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(defaultCfg(), 0, 128); err == nil {
		t.Error("zero banks accepted")
	}
	if _, err := NewEngine(defaultCfg(), 4, 0); err == nil {
		t.Error("zero rows accepted")
	}
	bad := defaultCfg()
	bad.RefPeriod = 0
	if _, err := NewEngine(bad, 4, 128); err == nil {
		t.Error("zero period accepted for enabled engine")
	}
}

func TestFiresEverySeventeenthRef(t *testing.T) {
	e := newEngine(t, defaultCfg())
	fired := make([]int, 0, 4)
	for ref := 1; ref <= 70; ref++ {
		e.ObserveActivate(2, 50) // a hammered aggressor in bank 2
		if out := e.OnRefresh(); len(out) > 0 {
			fired = append(fired, ref)
		}
	}
	want := []int{17, 34, 51, 68}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
}

func TestVictimNeighboursRefreshed(t *testing.T) {
	e := newEngine(t, defaultCfg())
	e.ObserveActivate(1, 64)
	var out []VictimRefresh
	for i := 0; i < 17; i++ {
		out = e.OnRefresh()
	}
	if len(out) != 1 || out[0].Bank != 1 {
		t.Fatalf("out = %+v, want one refresh in bank 1", out)
	}
	got := map[int]bool{}
	for _, r := range out[0].Rows {
		got[r] = true
	}
	if !got[63] || !got[65] || len(got) != 2 {
		t.Fatalf("refreshed rows %v, want {63, 65}", out[0].Rows)
	}
}

func TestSamplerKeepsMostRecentRow(t *testing.T) {
	e := newEngine(t, defaultCfg())
	e.ObserveActivate(0, 10)
	e.ObserveActivate(0, 20) // displaces row 10 in the single-slot sampler
	var out []VictimRefresh
	for i := 0; i < 17; i++ {
		out = e.OnRefresh()
	}
	if len(out) != 1 {
		t.Fatalf("want one bank refreshed, got %+v", out)
	}
	for _, r := range out[0].Rows {
		if r == 9 || r == 11 {
			t.Fatalf("victims of displaced aggressor 10 refreshed: %v", out[0].Rows)
		}
	}
}

func TestMultiSlotSamplerTracksSeveralAggressors(t *testing.T) {
	cfg := defaultCfg()
	cfg.SamplerSlots = 2
	e := newEngine(t, cfg)
	e.ObserveActivate(0, 10)
	e.ObserveActivate(0, 20)
	var out []VictimRefresh
	for i := 0; i < 17; i++ {
		out = e.OnRefresh()
	}
	got := map[int]bool{}
	for _, r := range out[0].Rows {
		got[r] = true
	}
	for _, want := range []int{9, 11, 19, 21} {
		if !got[want] {
			t.Fatalf("row %d not refreshed; got %v", want, out[0].Rows)
		}
	}
}

func TestSamplerDeduplicatesRepeatedRow(t *testing.T) {
	cfg := defaultCfg()
	cfg.SamplerSlots = 2
	e := newEngine(t, cfg)
	for i := 0; i < 100; i++ {
		e.ObserveActivate(0, 42) // hammering one row must occupy one slot only
	}
	e.ObserveActivate(0, 77)
	var out []VictimRefresh
	for i := 0; i < 17; i++ {
		out = e.OnRefresh()
	}
	got := map[int]bool{}
	for _, r := range out[0].Rows {
		got[r] = true
	}
	for _, want := range []int{41, 43, 76, 78} {
		if !got[want] {
			t.Fatalf("row %d missing from %v", want, out[0].Rows)
		}
	}
}

func TestSamplerResetAfterFire(t *testing.T) {
	e := newEngine(t, defaultCfg())
	e.ObserveActivate(0, 30)
	for i := 0; i < 17; i++ {
		e.OnRefresh()
	}
	// No activations since the fire: the next fire must be empty.
	var out []VictimRefresh
	for i := 0; i < 17; i++ {
		out = e.OnRefresh()
	}
	if len(out) != 0 {
		t.Fatalf("second fire refreshed %+v despite no activity", out)
	}
}

func TestEdgeRowsClampNeighbours(t *testing.T) {
	e := newEngine(t, defaultCfg())
	e.ObserveActivate(0, 0) // first row: only one neighbour exists
	var out []VictimRefresh
	for i := 0; i < 17; i++ {
		out = e.OnRefresh()
	}
	if len(out) != 1 || len(out[0].Rows) != 1 || out[0].Rows[0] != 1 {
		t.Fatalf("out = %+v, want bank 0 refreshing only row 1", out)
	}
}

func TestDisabledEngineIsInert(t *testing.T) {
	cfg := defaultCfg()
	cfg.Enabled = false
	e := newEngine(t, cfg)
	for i := 0; i < 100; i++ {
		e.ObserveActivate(0, 5)
		if out := e.OnRefresh(); out != nil {
			t.Fatal("disabled engine produced refreshes")
		}
	}
	if e.RefCount() != 0 {
		t.Fatal("disabled engine counted refreshes")
	}
}

func TestBanksAreIndependent(t *testing.T) {
	e := newEngine(t, defaultCfg())
	e.ObserveActivate(0, 10)
	e.ObserveActivate(3, 90)
	var out []VictimRefresh
	for i := 0; i < 17; i++ {
		out = e.OnRefresh()
	}
	if len(out) != 2 {
		t.Fatalf("want refreshes in 2 banks, got %+v", out)
	}
}
