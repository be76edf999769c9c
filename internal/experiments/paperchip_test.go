package experiments

import (
	"testing"

	"github.com/safari-repro/hbmrh/internal/addr"
	"github.com/safari-repro/hbmrh/internal/config"
)

// TestPaperChipCalibrationSpotCheck is the calibration regression net: it
// runs the full-geometry paper chip at low sampling density and asserts
// every headline number stays inside a tolerant band around the paper's
// reported values. cmd/calibrate produces the full table; this test keeps
// refactors honest. Skipped in -short runs (several seconds).
func TestPaperChipCalibrationSpotCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-geometry sweep is the heavyweight calibration check")
	}
	sweep, err := Run("sweep", Options{Cfg: config.PaperChip(), Rows: 12})
	if err != nil {
		t.Fatal(err)
	}
	h3, h4, h5 := SweepHeadlines(sweep)

	// Paper: channel 7 is 2.03x channel 0 in mean WCDP BER.
	if h3.MaxOverMinWCDP < 1.6 || h3.MaxOverMinWCDP > 2.7 {
		t.Errorf("channel BER ratio %.2fx outside the calibration band (paper 2.03x)", h3.MaxOverMinWCDP)
	}
	// Paper: up to 79% cross-channel BER spread.
	if h3.MaxSpreadPct < 60 || h3.MaxSpreadPct > 95 {
		t.Errorf("cross-channel spread %.0f%% outside the band (paper 79%%)", h3.MaxSpreadPct)
	}
	// Paper: minimum HCfirst 14531; the model floors at 14500.
	if h4.MinHCFirst < 14500 || h4.MinHCFirst > 20000 {
		t.Errorf("min HCfirst %d outside the band (paper 14531)", h4.MinHCFirst)
	}
	// Paper: channel 0 stripe means 57925 (RS0) and 79179 (RS1).
	rs0, rs1 := h4.Ch0Rowstripe0.V, h4.Ch0Rowstripe1.V
	if !h4.Ch0Rowstripe0.OK || rs0 < 48000 || rs0 > 70000 {
		t.Errorf("ch0 Rowstripe0 mean %+v outside the band (paper 57925)", h4.Ch0Rowstripe0)
	}
	if !h4.Ch0Rowstripe1.OK || rs1 < 66000 || rs1 > 95000 {
		t.Errorf("ch0 Rowstripe1 mean %+v outside the band (paper 79179)", h4.Ch0Rowstripe1)
	}
	if rs1 <= rs0 {
		t.Error("ch0 Rowstripe1 must need more hammers than Rowstripe0")
	}
	// Paper: the last 832 rows show substantially fewer bitflips.
	if r := h5.LastSubarrayRatio; !r.OK || r.V <= 0 || r.V >= 0.7 {
		t.Errorf("last-subarray ratio %v outside the band", r)
	}
	if r := h5.MidOverEdge; !r.OK || r.V <= 1.1 {
		t.Errorf("mid/edge ratio %v; subarray periodicity missing", r)
	}
	// Paper geometry invariant: middle region rows sit in 768-row
	// subarrays.
	layout := config.PaperChip().Layout()
	for _, r := range sweep.Rows {
		if r.Region == "middle" {
			sa, _ := layout.Locate(r.PhysRow)
			if layout.Size(sa) != 768 {
				t.Fatalf("middle-region row %d in a %d-row subarray, want 768", r.PhysRow, layout.Size(sa))
			}
		}
	}
}

// TestPaperChipTRRSpotCheck verifies Section 5 on the paper geometry.
func TestPaperChipTRRSpotCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-geometry U-TRR run")
	}
	a, err := Run("trrstudy", Options{
		Cfg:  config.PaperChip(),
		Bank: addr.BankAddr{Channel: 3, PseudoChannel: 1, Bank: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if period, periodic := TRRPeriod(a); !periodic || period != 17 {
		t.Fatalf("paper chip TRR period (%d, %v), want (17, true)", period, periodic)
	}
}
