package results

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Shard collection helpers shared by every merge CLI: expand user
// arguments (files, globs, directories) into artifact paths, load each
// with an error message naming the offending file, and merge the set in
// canonical order.

// ParseShardFlag parses a CLI -shard value of the form I/N and
// validates the index range. The empty string means unsharded and
// returns (0, 0); callers treat a zero count as "the whole plan".
func ParseShardFlag(s string) (shard, of int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	if _, err := fmt.Sscanf(s, "%d/%d", &shard, &of); err != nil || fmt.Sprintf("%d/%d", shard, of) != s {
		return 0, 0, fmt.Errorf("results: shard %q: want I/N, e.g. 0/4", s)
	}
	if of < 1 || shard < 0 || shard >= of {
		return 0, 0, fmt.Errorf("results: shard %q: shard index must be in [0, N)", s)
	}
	return shard, of, nil
}

// ExpandShardArgs resolves merge arguments into artifact file paths. An
// argument that is a directory contributes every *.json file directly
// inside it (sorted); an argument containing glob metacharacters is
// expanded with filepath.Glob; anything else is taken as a literal file
// path. Errors name the argument that failed, and an argument that
// matches nothing is an error rather than a silent no-op.
func ExpandShardArgs(args []string) ([]string, error) {
	var out []string
	for _, arg := range args {
		if st, err := os.Stat(arg); err == nil && st.IsDir() {
			entries, err := os.ReadDir(arg)
			if err != nil {
				return nil, fmt.Errorf("results: shard directory %s: %w", arg, err)
			}
			found := 0
			for _, e := range entries {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
					out = append(out, filepath.Join(arg, e.Name()))
					found++
				}
			}
			if found == 0 {
				return nil, fmt.Errorf("results: shard directory %s contains no .json artifacts", arg)
			}
			continue
		}
		if strings.ContainsAny(arg, "*?[") {
			matches, err := filepath.Glob(arg)
			if err != nil {
				return nil, fmt.Errorf("results: shard pattern %q: %w", arg, err)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("results: shard pattern %q matches no files", arg)
			}
			sort.Strings(matches)
			out = append(out, matches...)
			continue
		}
		out = append(out, arg)
	}
	return out, nil
}

// ReadShards expands the arguments and loads every artifact, reporting
// the first failure with the path of the shard that caused it.
func ReadShards(args []string) ([]*Artifact, []string, error) {
	paths, err := ExpandShardArgs(args)
	if err != nil {
		return nil, nil, err
	}
	shards := make([]*Artifact, 0, len(paths))
	for _, path := range paths {
		a, err := ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("results: reading shard %s: %w", path, err)
		}
		shards = append(shards, a)
	}
	return shards, paths, nil
}

// MergeShards merges a loaded shard set into one artifact. Shards are
// ordered by JobFirst first, so the result is independent of argument
// and glob order. A merge failure names the two shard files involved. The input
// artifacts are consumed (the first becomes the merge target).
func MergeShards(shards []*Artifact, paths []string) (*Artifact, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("results: no shard artifacts to merge")
	}
	if len(paths) != len(shards) {
		return nil, fmt.Errorf("results: %d shard paths for %d artifacts", len(paths), len(shards))
	}
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return shards[order[i]].Meta.JobFirst < shards[order[j]].Meta.JobFirst
	})
	merged, mergedPath := shards[order[0]], paths[order[0]]
	for _, idx := range order[1:] {
		if err := Merge(merged, shards[idx]); err != nil {
			return nil, fmt.Errorf("merging %s into %s: %w", paths[idx], mergedPath, err)
		}
		mergedPath = mergedPath + "+" + filepath.Base(paths[idx])
	}
	return merged, nil
}
