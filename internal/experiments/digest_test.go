package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/safari-repro/hbmrh/internal/config"
	"github.com/safari-repro/hbmrh/internal/defense"
)

// TestSection5StudyDigests pins the outputs of every study that drives
// retention decay, TRR or the defense guard: the SHA-256 of each study's
// artifact as json.MarshalIndent(a, "", "  ") lays it out plus a
// newline, the file layout the digests were taken in (code_version
// cleared, so any build compares), of a retention.FindRow result and of
// the guard's (flips, preventive refreshes) for fixed attacks. The
// digests were taken before these studies moved onto DRAM Bender
// programs, so any change in command order, timing or flip counting on
// their path shows up here. The
// fig6, rowpress and tempsweep digests were taken before their probes
// moved onto one batched program per chunk and pattern, which pins the
// per-row BER and HCfirst probes they make.
func TestSection5StudyDigests(t *testing.T) {
	small, paper := config.SmallChip(), config.PaperChip()
	study := func(name string, o Options) func() (string, error) {
		return func() (string, error) {
			a, err := Run(name, o)
			if err != nil {
				return "", err
			}
			a.Meta.CodeVersion = ""
			data, err := json.MarshalIndent(a, "", "  ")
			return string(data) + "\n", err
		}
	}
	guard := func(p defense.Policy, sameRow bool) func() (string, error) {
		return func() (string, error) {
			flips, refreshes, err := guardAttack(p, sameRow)
			return fmt.Sprintf("%d %d", flips, refreshes), err
		}
	}
	cases := []struct {
		name string
		run  func() (string, error)
		want string
	}{
		{"trrstudy/small", study("trrstudy", Options{Cfg: small}), "1acb1f06257ed7ad5100a91a35a299cb1eb9f8f5574ab2d089b0366e909c502c"},
		{"utrrprobe/small", study("utrrprobe", Options{Cfg: small}), "ea642044391772863f429d1c10288b2cacaed55b41d1f7acf2e362838d824ef4"},
		{"trrbypass/small", study("trrbypass", Options{Cfg: small}), "7d104ecc501caa4cd505e2eb5866da82bf7efb7ed6a72c1dfd7d7786cdfd02f2"},
		{"crosschannel/small", study("crosschannel", Options{Cfg: small}), "dcf48d90c353587b94a641198c1ab809d3774938f0839fc91520e27979a1749d"},
		{"fig6/small", study("fig6", Options{Cfg: small, Rows: 2}), "0c5eba20a1e53b5b133a5b589d246753376fa022ba7a68be4a759b51444ff997"},
		{"rowpress/small", study("rowpress", Options{Cfg: small}), "ca0851be837e19c9264cdc60a66ef532d47f4eb663be16e1b376eeebd5f8b61a"},
		{"tempsweep/small", study("tempsweep", Options{Cfg: small}), "40f8d1e28acc5bc1a9953cfb33c9e465c3ba508349c9a05cc968d6b0f0deac8e"},
		{"trrbypass/paper", study("trrbypass", Options{Cfg: paper, Hammers: 30000}), "ab5465e5819c4b3e27460e80daf894c87ea5b2cbe258d02cc7acc64268455e60"},
		{"crosschannel/paper", study("crosschannel", Options{Cfg: paper, Rows: 1}), "3c1cc1b7aee60b4b13e8e629f8274d753a332170e902e49ed549651d76f7cfa4"},
		{"retention/findrow", func() (string, error) {
			row, sec, err := findRowSmall()
			return fmt.Sprintf("%d %v", row, sec), err
		}, "2cda55c2ab9ed49e9508eb2cc8f7321a57846b2d2937656993ebdd331d15532f"},
		{"defense/pair", guard(defense.Uniform{T: 8000}, false), "8b98e86703f5cc8c4d72794e46601b7a4cdba74cada924e50fe38f0acc67d016"},
		{"defense/same-row", guard(defense.Uniform{T: 8000}, true), "8b98e86703f5cc8c4d72794e46601b7a4cdba74cada924e50fe38f0acc67d016"},
		{"defense/unguarded", guard(defense.Uniform{T: 1 << 30}, false), "be74b410bd0498f4cbc455e518778b0ddae9ada70cc725743b4312ca12a1ab7d"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			out, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
			t.Logf("%s: %v", tc.name, time.Since(start))
		})
	}
}
