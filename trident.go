// Package trident is a full functional reproduction, in pure Go, of
// "Trident: Harnessing Architectural Resources for All Page Sizes in x86
// Processors" (Ram, Panwar, Basu — MICRO '21).
//
// The paper extends Linux so that transparent huge-page support covers all
// three x86-64 page sizes (4KB, 2MB, 1GB): a buddy allocator that tracks
// free memory up to 1GB chunks, a page-fault handler that tries 1GB → 2MB →
// 4KB, a promotion daemon following Figure 5, region-counter-guided "smart"
// compaction, asynchronous zero-fill of 1GB regions, and — under
// virtualization — Trident_pv's copy-less promotion via gPA↔hPA mapping
// exchange hypercalls.
//
// Since a Go library cannot patch a kernel or read TLB performance
// counters, this repository implements the complete stack as a discrete
// simulator: physical memory and buddy allocator, 4-level x86-64 page
// tables, Skylake TLB hierarchy and paging-structure caches, VMAs and fault
// handling, THP/HawkEye baselines, the Trident policies, a KVM-like nested
// translation layer, models of the paper's 12 workloads, and a harness that
// regenerates every figure and table of the evaluation. See DESIGN.md for
// the substitution rationale and EXPERIMENTS.md for paper-vs-measured
// results.
//
// # Quick start
//
//	w, _ := trident.WorkloadByName("GUPS")
//	res, err := trident.Run(trident.Config{Workload: w, Policy: trident.PolicyTrident})
//	if err != nil { ... }
//	fmt.Println(res.Perf.WalkCycleFraction, res.MappedFinal)
//
// Compare systems exactly as the paper does:
//
//	table := trident.Figure9(trident.FullScale())
//	fmt.Println(table)      // aligned text
//	os.WriteFile("fig9.csv", []byte(table.CSV()), 0o644)
package trident

import (
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// Config describes one simulation run: a workload, a memory-management
// policy, and the machine/measurement parameters. See sim.Config for field
// documentation.
type Config = sim.Config

// Result carries everything a run measures: translation statistics, the
// modeled performance, page-size breakdowns, daemon statistics and tail
// latency.
type Result = sim.Result

// Policy selects the memory-management configuration under test.
type Policy = sim.PolicyKind

// The policies the paper evaluates.
const (
	// Policy4K disables all large pages.
	Policy4K = sim.Policy4K
	// PolicyTHP is Linux's Transparent Huge Pages (2MB only).
	PolicyTHP = sim.PolicyTHP
	// PolicyHugetlbfs2M / PolicyHugetlbfs1G statically pre-reserve pages.
	PolicyHugetlbfs2M = sim.PolicyHugetlbfs2M
	PolicyHugetlbfs1G = sim.PolicyHugetlbfs1G
	// PolicyHawkEye is the ASPLOS '19 baseline the paper compares against.
	PolicyHawkEye = sim.PolicyHawkEye
	// PolicyTrident is the paper's full system.
	PolicyTrident = sim.PolicyTrident
	// PolicyTrident1GOnly and PolicyTridentNC are Figure 11's ablations.
	PolicyTrident1GOnly = sim.PolicyTrident1GOnly
	PolicyTridentNC     = sim.PolicyTridentNC
)

// PolicyByName looks a policy up by its CLI name ("4k", "thp", "trident",
// ...); PolicyNames lists the valid names.
func PolicyByName(name string) (Policy, bool) { return sim.PolicyByName(name) }

// PolicyNames returns the valid CLI policy names, sorted.
func PolicyNames() []string { return sim.PolicyNames() }

// Run executes one configuration.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// Fingerprint returns the content address a Config's result is stored
// under: the memo-cache fingerprint that keys the persistent result store
// (see internal/store), the memo cache's one durable tier. Two processes — or two
// runs years apart — that fingerprint the same Config will exchange
// results through a shared store.
func Fingerprint(cfg Config) string { return runner.Fingerprint(cfg) }

// Workload models one of the paper's Table-2 applications.
type Workload = workload.Spec

// Workloads returns all 12 Table-2 workload models.
func Workloads() []*Workload { return workload.All() }

// WorkloadByName looks a workload up by its Table-2 name
// (e.g. "XSBench", "GUPS", "Redis").
func WorkloadByName(name string) (*Workload, bool) { return workload.ByName(name) }

// SensitiveWorkloads returns the eight 1GB-sensitive applications (the
// shaded set of Figure 1).
func SensitiveWorkloads() []*Workload { return workload.Sensitive() }

// Table is a rendered experiment result (text via String, CSV via CSV).
type Table = stats.Table

// Settings scales an experiment suite.
type Settings = experiments.Settings

// FullScale returns the default experiment settings: a 32GB machine,
// Skylake TLBs, ÷10 footprints, 2M sampled references per configuration.
func FullScale() Settings { return Settings{} }

// QuickScale returns reduced settings (half-scale footprints, ~4× smaller
// TLBs) for fast iteration, used by the test suite and benchmarks.
func QuickScale() Settings { return experiments.Quick() }

// TLBConfig describes a core's translation-cache geometry.
type TLBConfig = tlb.Config

// SkylakeTLB returns the paper's Table-1 TLB configuration.
func SkylakeTLB() TLBConfig { return tlb.Skylake() }

// Experiment drivers: one per figure/table of the paper's evaluation.
// Each returns a Table whose rows mirror what the paper plots.
var (
	// Figure1: native walk cycles + performance across page sizes.
	Figure1 = experiments.Figure1
	// Figure2: the same under virtualization (4KB+4KB / 2MB+2MB / 1GB+1GB).
	Figure2 = experiments.Figure2
	// Figure3: 1GB- vs 2MB-mappable virtual memory over time.
	Figure3 = experiments.Figure3
	// Figure4: relative TLB-miss frequency across VA regions.
	Figure4 = experiments.Figure4
	// Figure7: bytes-copied reduction from smart compaction.
	Figure7 = experiments.Figure7
	// Figure9/Figure10: THP vs HawkEye vs Trident, un-fragmented/fragmented.
	Figure9  = experiments.Figure9
	Figure10 = experiments.Figure10
	// Figure11: the Trident-1Gonly / Trident-NC ablation.
	Figure11 = experiments.Figure11
	// Figure12: virtualized THP/HawkEye/Trident at both levels.
	Figure12 = experiments.Figure12
	// Figure13: Trident_pv under fragmented guest-physical memory.
	Figure13 = experiments.Figure13
	// Table3: pages allocated by mechanism.
	Table3 = experiments.Table3
	// Table4: 1GB allocation failure rates under fragmentation.
	Table4 = experiments.Table4
	// Table5: Redis/Memcached p99 latency.
	Table5 = experiments.Table5
	// FaultLatency: the §5.1.2 fault-latency microbenchmark.
	FaultLatency = experiments.FaultLatency
	// PvLatency: the §6 copy vs exchange promotion-latency microbenchmark.
	PvLatency = experiments.PvLatency
	// DirectMap: the §4.3 kernel direct-map experiment.
	DirectMap = experiments.DirectMap
	// TLBSweep: extension — sweep the 1GB L2 TLB capacity (Sandy Bridge →
	// Ice Lake) under Trident.
	TLBSweep = experiments.TLBSweep
)
