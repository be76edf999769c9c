package core

import (
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
)

// TestBERProbeSteadyStateAllocs pins the whole probe stack — builder
// reuse, interned payloads, the jump-table interpreter, the read arena,
// the device's flip scratch and lazily-materialized rows — to zero
// allocations per BER measurement once warm. Every BER curve, HCfirst
// search and WCDP sweep bottoms out in this loop, so a regression here is
// a fleet-wide slowdown.
func TestBERProbeSteadyStateAllocs(t *testing.T) {
	h, err := NewHarnessFromConfig(config.SmallChip())
	if err != nil {
		t.Fatal(err)
	}
	ba := addr.BankAddr{Channel: 7}
	layout := h.Device().Config().Layout()
	victim := layout.Start(1) + layout.Size(1)/2
	p := Table1()[1]
	probe := func() {
		if _, err := h.BER(ba, victim, p, 100_000); err != nil {
			t.Fatal(err)
		}
	}
	probe() // warm: profiles, row states, builder, arena, scratch
	probe()
	if avg := testing.AllocsPerRun(30, probe); avg != 0 {
		t.Fatalf("steady-state BER probe allocates %.2f times per run, want 0", avg)
	}
}

// BenchmarkRunnerBatchedProbe isolates the runner→device layer: it
// re-runs one steady-state batched BER probe program (maxProbeBatch
// victims of one bank, the shape HCFirstBatch searches with) at
// alternating hammer counts set through SetLoopCount, so an iteration
// pays no assembly, validation or planning, only execution. Besides
// ns/op it reports ns per ACT command the runner issues (the fills' and
// read-outs'; a hammer loop's activations are applied in bulk, at O(1)
// cost per loop, and are not counted), and it fails if an iteration
// allocates.
func BenchmarkRunnerBatchedProbe(b *testing.B) {
	h, err := NewHarnessFromConfig(config.SmallChip())
	if err != nil {
		b.Fatal(err)
	}
	ba := addr.BankAddr{Channel: 7}
	rows := h.Device().Geometry().Rows
	victims := make([]int, maxProbeBatch)
	for i := range victims {
		victims[i] = 1 + i*((rows-2)/len(victims))
	}
	pp := &h.probe
	if err := h.buildProbes(pp, ba, victims, Table1()[1], 20_000, h.Device().Config().Timing.TRAS); err != nil {
		b.Fatal(err)
	}
	out := make([]BERResult, len(victims))
	counts := make([]int, len(victims))
	hammers := [2]int{20_000, 10_000}
	i := 0
	var hammerActs int64 // activations the hammer loops applied in bulk
	run := func() {
		n := hammers[i%2]
		for j := range counts {
			counts[j] = n
		}
		if err := h.runProbes(pp, counts, out); err != nil {
			b.Fatal(err)
		}
		hammerActs += 2 * int64(n) * int64(len(victims))
		i++
	}
	run() // warm: profiles, row states, the runner's plan, the read arena
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		b.Fatalf("a batched probe run allocates %.2f times, want 0", allocs)
	}
	acts := h.Device().Stats().Acts
	hammerActs = 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		run()
	}
	b.StopTimer()
	commands := h.Device().Stats().Acts - acts - hammerActs
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(commands), "ns/act")
}
