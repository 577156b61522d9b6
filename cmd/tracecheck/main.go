// Command tracecheck validates a Chrome/Perfetto trace-event JSON file as
// produced by the observability layer (internal/obs): it must parse, contain
// at least one event, keep timestamps non-decreasing within every
// (pid, tid) stream, and balance every duration-begin ("B") with a matching
// duration-end ("E") in stack order. ci.sh runs it over a traced experiment
// as the observability gate.
//
//	tracecheck report/trace/figure9.json [more.json ...]
//
// With -counts it instead compares two traced output directories (the
// -out directories of two `bench/run.sh --trace 1` runs, say of a parent
// commit and a change): it sums every count column of their series-*.csv
// files per run label, prints each count that moved, and exits 1 if any
// did. A change that only speeds up the simulator must move none.
//
//	tracecheck -counts <parentDir> <changeDir>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
)

type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   uint64 `json:"ts"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

func main() {
	counts := flag.Bool("counts", false, "compare the obs counts of two traced output directories")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.json> [more.json ...]\n       tracecheck -counts <parentDir> <changeDir>")
	}
	flag.Parse()
	if *counts {
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		moved, err := compareCounts(flag.Arg(0), flag.Arg(1))
		if err != nil {
			slog.Error("counts unreadable", "err", err)
			os.Exit(2)
		}
		for _, m := range moved {
			fmt.Println(m)
		}
		if len(moved) > 0 {
			os.Exit(1)
		}
		fmt.Println("obs counts identical")
		return
	}
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	failed := false
	for _, path := range flag.Args() {
		if err := check(path); err != nil {
			slog.Error("trace invalid", "file", path, "err", err)
			failed = true
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	if failed {
		os.Exit(1)
	}
}

func check(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("no trace events")
	}
	type stream struct{ pid, tid int }
	lastTs := map[stream]uint64{}
	stacks := map[stream][]string{}
	spans, instants, counters := 0, 0, 0
	for i, e := range tf.TraceEvents {
		s := stream{e.Pid, e.Tid}
		switch e.Ph {
		case "M": // metadata carries no timestamp semantics
			continue
		case "B":
			spans++
			stacks[s] = append(stacks[s], e.Name)
		case "E":
			st := stacks[s]
			if len(st) == 0 {
				return fmt.Errorf("event %d: E %q on pid %d tid %d with no open span", i, e.Name, e.Pid, e.Tid)
			}
			if top := st[len(st)-1]; top != e.Name {
				return fmt.Errorf("event %d: E %q does not match open span %q", i, e.Name, top)
			}
			stacks[s] = st[:len(st)-1]
		case "i":
			instants++
		case "C":
			counters++
		default:
			return fmt.Errorf("event %d: unknown phase %q", i, e.Ph)
		}
		if prev, seen := lastTs[s]; seen && e.Ts < prev {
			return fmt.Errorf("event %d: ts %d < previous %d on pid %d tid %d", i, e.Ts, prev, e.Pid, e.Tid)
		}
		lastTs[s] = e.Ts
	}
	for s, st := range stacks {
		if len(st) > 0 {
			return fmt.Errorf("pid %d tid %d: %d unclosed span(s), first %q", s.pid, s.tid, len(st), st[0])
		}
	}
	fmt.Printf("%s: %d events (%d span-halves, %d instants, %d counter samples)\n",
		path, len(tf.TraceEvents), spans*2, instants, counters)
	return nil
}
