package main

import (
	"encoding/csv"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// countColumns are the series CSV columns (internal/obs writeSeries) that
// count simulated events per batch. A change that only speeds up the
// simulator leaves every one of their sums unchanged; the other columns are
// gauges, rates and clocks.
var countColumns = []string{
	"acc_4k", "acc_2m", "acc_1g", "l2_hits", "walks", "walk_mem",
	"faults_4k", "faults_2m", "faults_1g", "kmaps", "kunmaps", "kmoves",
}

// runCounts maps a run label to its count-column sums.
type runCounts map[string]map[string]uint64

// compareCounts sums the count columns of every series-*.csv under the two
// directories per run label and returns one line per count that moved, or
// that one side lacks. Within a directory every file that carries a label
// must give it the same sums (each traced iteration repeats the same
// jobs), so directories with different iteration counts still compare.
func compareCounts(parentDir, changeDir string) ([]string, error) {
	parent, err := dirCounts(parentDir)
	if err != nil {
		return nil, err
	}
	change, err := dirCounts(changeDir)
	if err != nil {
		return nil, err
	}
	labels := append(sortedKeys(parent), sortedKeys(change)...)
	sort.Strings(labels)
	labels = slices.Compact(labels)
	var moved []string
	for _, l := range labels {
		p, inParent := parent[l]
		c, inChange := change[l]
		switch {
		case !inParent:
			moved = append(moved, fmt.Sprintf("%s: only in %s", l, changeDir))
		case !inChange:
			moved = append(moved, fmt.Sprintf("%s: only in %s", l, parentDir))
		default:
			for _, col := range countColumns {
				if p[col] != c[col] {
					moved = append(moved, fmt.Sprintf("%s %s: %d -> %d", l, col, p[col], c[col]))
				}
			}
		}
	}
	return moved, nil
}

// dirCounts reads every series-*.csv under dir.
func dirCounts(dir string) (runCounts, error) {
	out := runCounts{}
	files := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if ok, _ := filepath.Match("series-*.csv", d.Name()); !ok {
			return nil
		}
		files++
		fc, err := fileCounts(path)
		if err != nil {
			return err
		}
		for _, l := range sortedKeys(fc) {
			sums := fc[l]
			prev, seen := out[l]
			if !seen {
				out[l] = sums
				continue
			}
			for _, col := range countColumns {
				if prev[col] != sums[col] {
					return fmt.Errorf("%s: run %s %s sums to %d, another series file of the directory to %d", path, l, col, sums[col], prev[col])
				}
			}
		}
		return nil
	})
	if err == nil && files == 0 {
		err = fmt.Errorf("%s: no series-*.csv files", dir)
	}
	return out, err
}

// fileCounts sums one series CSV's count columns per run label.
func fileCounts(path string) (runCounts, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: empty", path)
	}
	idx := map[string]int{}
	for i, name := range rows[0] {
		idx[name] = i
	}
	for _, col := range append([]string{"run"}, countColumns...) {
		if _, ok := idx[col]; !ok {
			return nil, fmt.Errorf("%s: no %q column", path, col)
		}
	}
	out := runCounts{}
	for n, row := range rows[1:] {
		l := row[idx["run"]]
		sums := out[l]
		if sums == nil {
			sums = map[string]uint64{}
			out[l] = sums
		}
		for _, col := range countColumns {
			v, err := strconv.ParseUint(strings.TrimSpace(row[idx[col]]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: row %d %s: %w", path, n+2, col, err)
			}
			sums[col] += v
		}
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
