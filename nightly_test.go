package hbmrh_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	fuzzStep = regexp.MustCompile(`go test .*-fuzz (Fuzz\w+)\b.* (\./\S+)\s*$`)
)

// TestNightlyFuzzesEveryTarget keeps the nightly workflow's fuzz steps in
// step with the code: every `func FuzzX(` in a test file under internal/
// or cmd/ must have a `go test -fuzz FuzzX ... ./<its package>` step in
// .github/workflows/nightly.yml. PR runs only replay the seed corpora, so
// a target without a nightly step would never search for new inputs.
func TestNightlyFuzzesEveryTarget(t *testing.T) {
	nightly, err := os.ReadFile(filepath.Join(".github", "workflows", "nightly.yml"))
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]map[string]bool{} // target -> packages it is fuzzed in
	for _, line := range strings.Split(string(nightly), "\n") {
		if m := fuzzStep.FindStringSubmatch(line); m != nil {
			if steps[m[1]] == nil {
				steps[m[1]] = map[string]bool{}
			}
			steps[m[1]][m[2]] = true
		}
	}

	targets := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			pkg := "./" + filepath.ToSlash(filepath.Dir(path))
			for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
				targets++
				if !steps[m[1]][pkg] {
					t.Errorf("%s: %s has no `go test -fuzz %s ... %s` step in nightly.yml", path, m[1], m[1], pkg)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if targets == 0 {
		t.Fatal("found no fuzz targets under internal/ or cmd/")
	}
}
