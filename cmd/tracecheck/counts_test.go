package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const seriesHeader = "run,phase,batch,acc_4k,acc_2m,acc_1g,l2_hits,walks,walk_mem,faults_4k,faults_2m,faults_1g,kmaps,kunmaps,kmoves,free_frames\n"

func writeSeries(t *testing.T, dir, name string, rows ...string) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(seriesHeader+strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareCounts(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	rowsA := []string{
		"GUPS/THP,populate,0,0,0,0,0,0,0,500,3,0,503,0,0,100",
		"GUPS/THP,measure,1,2000,10,0,7,5,20,0,0,0,0,0,0,90",
		"Redis/4KB,populate,0,0,0,0,0,0,0,900,0,0,900,0,0,80",
	}
	// Same sums split across rows differently, gauges changed, and a
	// second iteration's file: identical counts.
	rowsB := []string{
		"GUPS/THP,populate,0,0,0,0,0,0,0,400,3,0,403,0,0,1",
		"GUPS/THP,measure,1,2000,10,0,7,5,20,100,0,0,100,0,0,2",
		"Redis/4KB,populate,0,0,0,0,0,0,0,900,0,0,900,0,0,3",
	}
	writeSeries(t, a, "p0/series-000.csv", rowsA...)
	writeSeries(t, b, "p0/series-000.csv", rowsB...)
	writeSeries(t, b, "p0/series-001.csv", rowsB...)
	if moved, err := compareCounts(a, b); err != nil || len(moved) != 0 {
		t.Fatalf("identical counts: moved %v, err %v", moved, err)
	}

	c := t.TempDir()
	writeSeries(t, c, "series-000.csv",
		"GUPS/THP,populate,0,0,0,0,0,0,0,501,3,0,503,0,0,100",
		"GUPS/THP,measure,1,2000,10,0,7,5,21,0,0,0,0,0,0,90",
		"SVM/THP,populate,0,0,0,0,0,0,0,1,0,0,1,0,0,80",
	)
	moved, err := compareCounts(a, c)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"GUPS/THP walk_mem: 20 -> 21",
		"GUPS/THP faults_4k: 500 -> 501",
		"Redis/4KB: only in " + a,
		"SVM/THP: only in " + c,
	}
	if !slices.Equal(moved, want) {
		t.Fatalf("moved:\n%s\nwant:\n%s", strings.Join(moved, "\n"), strings.Join(want, "\n"))
	}

	d := t.TempDir()
	writeSeries(t, d, "series-000.csv", rowsA...)
	writeSeries(t, d, "series-001.csv", rowsA[1:]...)
	if _, err := compareCounts(a, d); err == nil {
		t.Fatal("iterations that disagree within a directory were accepted")
	}
	if _, err := compareCounts(a, t.TempDir()); err == nil {
		t.Fatal("a directory without series files was accepted")
	}
}
