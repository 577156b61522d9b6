package experiments

import (
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/promote"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/units"
	"repro/internal/virt"
	"repro/internal/vmm"
	"repro/internal/workload"
	"repro/internal/xrand"
	"repro/internal/zerofill"
)

// The drivers in this file are not (workload × policy) sim.Run grids: they
// build small dedicated machines and scan them. They still execute on the
// runner engine — as function jobs, one per independent unit (workload,
// mechanism) — so a full cmd/experiments run parallelizes them alongside
// the grid drivers. Rows buffer per job and are appended in submission
// order, keeping output byte-identical for any worker count.

// row is one buffered stats.Table row.
type row []any

func commitRows(t *stats.Table) func(any) {
	return func(v any) {
		for _, r := range v.([]row) {
			t.AddRow(r...)
		}
	}
}

// Figure3 reproduces Figure 3: the amount of allocated virtual memory
// mappable with 1GB vs 2MB pages over the execution timeline, for Graph500
// and SVM. Each row is one sample of the paper's kernel-module scan.
func Figure3(s Settings) *stats.Table {
	s = s.fill()
	t := stats.NewTable("Figure 3: mappable memory over time",
		"workload", "step", "mappable_1g_gb", "mappable_2m_gb", "gap_gb")
	var jobs []runner.Job
	for _, name := range []string{"Graph500", "SVM"} {
		jobs = append(jobs, runner.Func(func() any {
			w, _ := workload.ByName(name)
			k := kernel.New(s.MemGB*units.Page1G, units.TridentMaxOrder)
			task := k.NewTask(name)
			policy := fault.NewTHP(k)
			step := 0
			var rows []row
			_, err := w.InstantiateObserved(k, task, policy, s.Seed, s.Scale, func(stage string) {
				m1 := task.AS.MappableBytes(units.Size1G)
				m2 := task.AS.MappableBytes(units.Size2M)
				rows = append(rows, row{name, step, gb(m1), gb(m2), gb(m2 - m1)})
				step++
			})
			if err != nil {
				panic("experiments: figure 3: " + err.Error())
			}
			return rows
		}, commitRows(t)))
	}
	s.run("figure3", jobs)
	return t
}

// Figure4 reproduces Figure 4: relative TLB-miss frequency across the
// allocated virtual address regions, classified as 1GB-mappable vs
// 2MB-but-not-1GB-mappable. The measurement follows the paper's method:
// map everything with 4KB pages, clear the PTE access bits, run the access
// stream, and count which PTEs the hardware re-set.
func Figure4(s Settings) *stats.Table {
	s = s.fill()
	t := stats.NewTable("Figure 4: relative TLB-miss frequency by VA region",
		"workload", "bucket", "class", "rel_freq")
	const buckets = 48
	var jobs []runner.Job
	for _, name := range []string{"Graph500", "SVM"} {
		jobs = append(jobs, runner.Func(func() any {
			w, _ := workload.ByName(name)
			k := kernel.New(s.MemGB*units.Page1G, units.TridentMaxOrder)
			task := k.NewTask(name)
			policy := fault.NewBase4K(k) // 4KB PTEs, as in the paper's module
			inst, err := w.Instantiate(k, task, policy, s.Seed, s.Scale)
			if err != nil {
				panic("experiments: figure 4: " + err.Error())
			}
			// Clear all access bits, then run the access stream.
			task.AS.PT.ClearAccessed(0, pagetable.MaxVA)
			for i := 0; i < s.Accesses/4; i++ {
				va, write := inst.Next()
				task.AS.PT.Translate(va, write)
			}
			// Bucket the heap VA span and count re-set access bits per bucket.
			vmas := task.AS.VMAs()
			lo, hi := uint64(1)<<62, uint64(0)
			for _, v := range vmas {
				if v.Kind != vmm.KindAnon {
					continue
				}
				if v.Start < lo {
					lo = v.Start
				}
				if v.End > hi {
					hi = v.End
				}
			}
			if hi <= lo {
				return []row(nil)
			}
			span := (hi - lo + buckets - 1) / buckets
			span = units.AlignUp(span, units.Page4K)
			var maxCount int
			counts := make([]int, buckets)
			class := make([]string, buckets)
			for b := 0; b < buckets; b++ {
				blo := lo + uint64(b)*span
				bhi := blo + span
				accessed := 0
				mappable1G := false
				task.AS.PT.ForEach(blo, bhi, func(m pagetable.Mapping) bool {
					if m.Accessed {
						accessed++
					}
					return true
				})
				// Classify: does any 1GB-aligned fully-mappable span cover part
				// of this bucket?
				for _, v := range vmas {
					c0 := units.AlignUp(v.Start, units.Page1G)
					c1 := units.Align(v.End, units.Page1G)
					if c1 > c0 && c0 < bhi && blo < c1 {
						mappable1G = true
						break
					}
				}
				counts[b] = accessed
				if mappable1G {
					class[b] = "1GB-mappable"
				} else {
					class[b] = "2MB-only"
				}
				if accessed > maxCount {
					maxCount = accessed
				}
			}
			var rows []row
			for b := 0; b < buckets; b++ {
				rel := 0.0
				if maxCount > 0 {
					rel = float64(counts[b]) / float64(maxCount)
				}
				rows = append(rows, row{name, b, class[b], rel})
			}
			return rows
		}, commitRows(t)))
	}
	s.run("figure4", jobs)
	return t
}

// FaultLatency reproduces the §5.1.2 microbenchmark: the latency of 2MB
// faults, synchronous 1GB faults, and 1GB faults served from the
// asynchronous zero-fill pool. The three cases share one machine (case 2
// depends on the pool state case 1 leaves behind), so this is a single
// sequential job.
func FaultLatency(s Settings) *stats.Table {
	t := stats.NewTable("§5.1.2: large-page fault latency",
		"case", "latency_ms", "paper_ms")
	jobs := []runner.Job{runner.Func(func() any {
		k := kernel.New(8*units.Page1G, units.TridentMaxOrder)
		task := k.NewTask("bench")
		zero := zerofill.New(k)
		p := fault.NewTrident(k, zero)
		if _, err := task.AS.MMapAligned(4*units.Page1G, units.Page1G, vmm.KindAnon); err != nil {
			panic(err)
		}

		var rows []row
		// Case 1: 1GB fault with no pre-zeroed region → synchronous zeroing.
		r1, err := p.Handle(task, vmm.MmapBase)
		if err != nil || r1.Size != units.Size1G {
			panic("fault latency: sync 1GB fault failed")
		}
		rows = append(rows, row{"1GB fault, synchronous zero", r1.LatencyNs / 1e6, 400.0})

		// Case 2: 1GB fault from the async pool.
		zero.Refill(1)
		r2, err := p.Handle(task, vmm.MmapBase+units.Page1G)
		if err != nil || r2.Size != units.Size1G {
			panic("fault latency: async 1GB fault failed")
		}
		rows = append(rows, row{"1GB fault, async zero-fill", r2.LatencyNs / 1e6, 2.7})

		// Case 3: 2MB THP fault.
		thp := fault.NewTHP(k)
		va, _ := task.AS.MMapAligned(units.Page2M, units.Page2M, vmm.KindAnon)
		r3, err := thp.Handle(task, va)
		if err != nil || r3.Size != units.Size2M {
			panic("fault latency: 2MB fault failed")
		}
		rows = append(rows, row{"2MB fault", r3.LatencyNs / 1e6, 0.85})
		return rows
	}, commitRows(t))}
	s.run("fault_latency", jobs)
	return t
}

// PvLatency reproduces §6's promotion-latency comparison: collapsing
// 512×2MB guest pages into one 1GB page by copy, by per-page hypercall
// exchange, and by batched exchange. Each mechanism builds its own machine,
// so the three run as independent jobs.
func PvLatency(s Settings) *stats.Table {
	t := stats.NewTable("§6: 1GB promotion latency in the guest",
		"mechanism", "latency_ms", "paper_ms")
	run := func(move promote.MoveMode) float64 {
		host := kernel.New(6*units.Page1G, units.TridentMaxOrder)
		hz := zerofill.New(host)
		hz.Refill(1 << 20)
		hp := fault.NewTrident(host, hz)
		vm, err := virt.New(host, hp, kernel.New(3*units.Page1G, units.TridentMaxOrder))
		if err != nil {
			panic(err)
		}
		gt := vm.Guest.NewTask("app")
		gva, _ := gt.AS.MMapAligned(units.Page1G, units.Page1G, vmm.KindAnon)
		thp := fault.NewTHP(vm.Guest)
		for i := uint64(0); i < 512; i++ {
			if _, err := thp.Handle(gt, gva+i*units.Page2M); err != nil {
				panic(err)
			}
		}
		d := promote.NewTrident(vm.Guest, zerofill.New(vm.Guest))
		switch move {
		case promote.MovePvBatched:
			vm.AttachPvExchange(d, true)
		case promote.MovePvUnbatched:
			vm.AttachPvExchange(d, false)
		}
		d.ScanTask(gt, 0)
		return d.S.MoveNanoseconds
	}
	cases := []struct {
		label   string
		move    promote.MoveMode
		paperMs float64
	}{
		{"copy-based", promote.MoveCopy, 600.0},
		{"pv exchange, unbatched", promote.MovePvUnbatched, 30.0},
		{"pv exchange, batched", promote.MovePvBatched, 0.5},
	}
	var jobs []runner.Job
	for _, c := range cases {
		jobs = append(jobs, runner.Func(func() any {
			return []row{{c.label, run(c.move) / 1e6, c.paperMs}}
		}, commitRows(t)))
	}
	s.run("pv_latency", jobs)
	return t
}

// DirectMap reproduces §4.3's kernel observation: the kernel direct-maps
// all physical memory, and using 1GB instead of 2MB entries for the direct
// map improves OS-intensive workloads (apache, filebench) by 2–3%. The
// model: OS-side execution spends osFrac of its cycles in kernel code whose
// data accesses go through the direct map; we measure direct-map walk
// cycles with each page size over a page-cache-like access pattern.
func DirectMap(s Settings) *stats.Table {
	s = s.fill()
	t := stats.NewTable("§4.3: kernel direct-map page size",
		"os_workload", "directmap_size", "perf_norm_vs_2m")
	const (
		kernelDataGB = 6    // page cache + kernel objects touched
		osFrac       = 0.06 // fraction of cycles in direct-map-bound kernel code
		baseCPA      = 60.0
	)
	var jobs []runner.Job
	for _, osw := range []string{"apache", "filebench"} {
		jobs = append(jobs, runner.Func(func() any {
			seed := s.Seed
			if osw == "filebench" {
				seed += 7
			}
			var cpa [units.NumPageSizes]float64
			for _, size := range []units.PageSize{units.Size2M, units.Size1G} {
				pt := pagetable.New()
				for va := uint64(0); va < kernelDataGB*units.Page1G; va += size.Bytes() {
					if err := pt.Map(va, va/units.Page4K, size); err != nil {
						panic(err)
					}
				}
				cfg := tlb.Skylake()
				if s.TLB != nil {
					cfg = *s.TLB
				}
				m := mmu.New(cfg)
				rng := xrand.New(seed)
				n := s.Accesses / 2
				for i := 0; i < n; i++ {
					m.Translate(pt, nil, rng.Uint64n(kernelDataGB*units.Page1G), rng.Bool(0.3))
				}
				walkCPA := m.Totals().WalkCyclesPerAccess()
				cpa[size] = baseCPA + walkCPA
			}
			// Only osFrac of total time is kernel-side.
			perf := 1 / (1 - osFrac + osFrac*cpa[units.Size1G]/cpa[units.Size2M])
			return []row{{osw, "1GB", perf}}
		}, commitRows(t)))
	}
	s.run("direct_map", jobs)
	return t
}
