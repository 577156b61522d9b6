// Package sim assembles the full machine — kernel, MMU, policies, daemons,
// workload — and executes one experimental run the way the paper's scripts
// do: (optionally) fragment physical memory, let the application allocate
// and demand-fault its footprint, run the promotion/compaction daemons,
// then measure a sampled reference stream and convert the translation
// counts into walk-cycle fractions and normalized performance.
package sim

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/chaos"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fragment"
	"repro/internal/hawkeye"
	"repro/internal/kernel"
	"repro/internal/mmu"
	"repro/internal/obs"
	"repro/internal/pagetable"
	"repro/internal/perfmodel"
	"repro/internal/promote"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/tlb"
	"repro/internal/units"
	"repro/internal/virt"
	"repro/internal/workload"
	"repro/internal/zerofill"
)

// PolicyKind selects the memory-management configuration under test.
type PolicyKind int

// The configurations the paper evaluates.
const (
	// Policy4K: THP disabled, 4KB everywhere.
	Policy4K PolicyKind = iota
	// PolicyTHP: Linux Transparent Huge Pages (2MB + khugepaged).
	PolicyTHP
	// PolicyHugetlbfs2M / PolicyHugetlbfs1G: static pre-reservation.
	PolicyHugetlbfs2M
	PolicyHugetlbfs1G
	// PolicyHawkEye: THP fault path + HawkEye daemons [42].
	PolicyHawkEye
	// PolicyTrident: the full system (1G→2M→4K faults, Figure-5 promotion,
	// smart compaction, async zero-fill).
	PolicyTrident
	// PolicyTrident1GOnly: ablation without the 2MB fallback (Figure 11).
	PolicyTrident1GOnly
	// PolicyTridentNC: ablation with normal instead of smart compaction.
	PolicyTridentNC
)

// String implements fmt.Stringer with the paper's configuration names.
func (p PolicyKind) String() string {
	switch p {
	case Policy4K:
		return "4KB"
	case PolicyTHP:
		return "2MB-THP"
	case PolicyHugetlbfs2M:
		return "2MB-Hugetlbfs"
	case PolicyHugetlbfs1G:
		return "1GB-Hugetlbfs"
	case PolicyHawkEye:
		return "HawkEye"
	case PolicyTrident:
		return "Trident"
	case PolicyTrident1GOnly:
		return "Trident-1Gonly"
	case PolicyTridentNC:
		return "Trident-NC"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(p))
}

// policyNames maps the case-folded CLI/API names to kinds. It is the
// single source of truth for every front-end that parses a policy name
// (cmd/tridentsim flags, the sweep service's JSON submissions).
var policyNames = map[string]PolicyKind{
	"4k":             Policy4K,
	"thp":            PolicyTHP,
	"hugetlbfs2m":    PolicyHugetlbfs2M,
	"hugetlbfs1g":    PolicyHugetlbfs1G,
	"hawkeye":        PolicyHawkEye,
	"trident":        PolicyTrident,
	"trident-1gonly": PolicyTrident1GOnly,
	"trident-nc":     PolicyTridentNC,
}

// PolicyByName resolves a policy's CLI name (case-insensitive: "4k",
// "thp", "hugetlbfs2m", "hugetlbfs1g", "hawkeye", "trident",
// "trident-1gonly", "trident-nc") to its kind.
func PolicyByName(name string) (PolicyKind, bool) {
	p, ok := policyNames[strings.ToLower(name)]
	return p, ok
}

// PolicyNames lists the accepted policy names, sorted, for error messages.
func PolicyNames() []string {
	out := make([]string, 0, len(policyNames))
	for name := range policyNames {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RefRuntimeNs is the modeled full-run duration against which background
// daemon CPU time is charged as overhead (the paper's workloads run for
// minutes; daemon work amortizes over that, not over the sampled window).
const RefRuntimeNs = 300e9 // 5 minutes

// Defaults applied to zero-valued Config fields. These are the single source
// of truth for experiment-scale defaulting: the experiments package derives
// its Settings defaults from them rather than duplicating the values.
const (
	// DefaultMemGB is the simulated machine size (the paper's 384GB testbed
	// scaled with the ÷10 footprints, rounded up to whole 1GB regions).
	DefaultMemGB = 32
	// DefaultScale multiplies workload footprints.
	DefaultScale = 1.0
	// DefaultAccesses is the sampled reference-stream length.
	DefaultAccesses = 2_000_000
	// DefaultSeed seeds all randomness. Seed 0 is reserved as "unset": a
	// zero-value Config must be runnable, so Seed == 0 is remapped to
	// DefaultSeed. Front-ends that accept user seeds should reject 0
	// explicitly instead of letting it silently alias seed 1 (cmd/experiments
	// does). This remapping is part of the determinism contract and is
	// covered by tests.
	DefaultSeed = 1
)

// Config describes one run.
type Config struct {
	Workload *workload.Spec
	Policy   PolicyKind

	// MemGB is host physical memory (default 32).
	MemGB uint64
	// Scale multiplies workload footprints (default 1.0).
	Scale float64
	// Accesses is the number of sampled references measured (default 2M).
	Accesses int
	// Seed drives all randomness (default 1).
	Seed uint64

	// Fragment pre-fragments physical memory per §3 (FMFI ≈ 0.95).
	Fragment bool
	// DisablePromotion stops all daemons: the "Page-fault only" rows of
	// Table 3.
	DisablePromotion bool

	// Virtualized runs the workload in a VM; Policy then applies to the
	// guest and HostPolicy to the hypervisor's backing of guest memory.
	Virtualized bool
	HostPolicy  PolicyKind
	// KhugepagedBudgetFrac caps guest daemon CPU at this fraction of a vCPU
	// (Figure 13 uses 0.10); 0 = unlimited.
	KhugepagedBudgetFrac float64
	// Pv enables Trident_pv's copy-less promotion in the guest, with
	// batched hypercalls.
	Pv bool

	// TLB overrides the translation-cache geometry (nil = tlb.Skylake()).
	// Tests use proportionally shrunken TLBs with shrunken footprints.
	TLB *tlb.Config

	// ShadowCheck enables the MMU's test-only coherence mode: every TLB
	// fast-path hit is cross-checked against the software page walk and any
	// divergence panics (see mmu.MMU.ShadowCheck). Measured results are
	// unaffected; only tests should set it.
	ShadowCheck bool

	// Chaos configures deterministic fault injection (internal/chaos):
	// seed-driven forced buddy-allocation failures, zero-pool exhaustion
	// and compaction/promotion aborts. The zero value disables injection
	// and leaves the run bit-identical to one without the field. Injected
	// failures are followed by the whole-machine invariant auditor
	// (internal/audit) on a bounded schedule (every one of the first 32,
	// then the powers of two); an incoherent machine fails the run.
	Chaos chaos.Config
	// AuditEvery runs the invariant auditor every N access batches (one
	// batch = 2000 sampled references) during measurement, plus once after
	// population and once after the daemons. 0 disables periodic audits.
	AuditEvery int

	// Obs attaches a per-run observability recorder (internal/obs): phase
	// spans, trace events and per-batch time-series samples, all stamped
	// with simulated event time. nil disables observability completely —
	// hot paths pay one nil check per 2000-access batch, nothing is
	// allocated, and the run's Result and report output are byte-identical
	// to a run without the field. The recorder only observes; it never
	// influences execution, which is why the runner package's memo key
	// (runner.keyOf) clears it.
	Obs *obs.Run
}

func (c *Config) setDefaults() {
	if c.TLB == nil {
		cfg := tlb.Skylake()
		c.TLB = &cfg
	}
	if c.MemGB == 0 {
		c.MemGB = DefaultMemGB
	}
	if c.Scale == 0 {
		c.Scale = DefaultScale
	}
	if c.Accesses == 0 {
		c.Accesses = DefaultAccesses
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
}

// Normalized returns a copy of c with every defaulted field resolved to its
// concrete value (the same resolution Run performs), so two configs that
// would execute identically compare identically. The runner package's memo
// cache keys on normalized configs.
func (c Config) Normalized() Config {
	c.setDefaults()
	return c
}

// Result is everything a run measures.
type Result struct {
	Workload string
	Policy   string

	// Trans and Perf summarize the measurement phase.
	Trans perfmodel.TranslationStats
	Perf  perfmodel.Perf

	// MappedAfterFaults/MappedFinal break down mapped bytes by page size
	// after population (Table 3 "Page-fault only") and after the daemons
	// (Table 3 "Promotion").
	MappedAfterFaults [units.NumPageSizes]uint64
	MappedFinal       [units.NumPageSizes]uint64

	Fault fault.Stats
	// Promote/HawkEye/SmartCompact/NormalCompact are nil when the
	// configuration lacks that component. NormalCompact covers 2MB-chunk
	// compaction; Normal1GCompact is Trident-NC's sequential 1GB compactor.
	Promote         *promote.Stats
	HawkEye         *hawkeye.Stats
	SmartCompact    *compact.Stats
	NormalCompact   *compact.Stats
	Normal1GCompact *compact.Stats
	// VirtStats is hypervisor-side activity (virtualized runs only).
	VirtStats *virt.Stats
	// Chaos reports fault-injection activity (runs with Config.Chaos only).
	Chaos *chaos.Stats

	// BloatBytes is promotion-induced internal fragmentation (§7).
	BloatBytes uint64
	// DaemonOverhead is the CPU fraction charged against the application.
	DaemonOverhead float64
	// TailP99Ns is the p99 request latency for throughput workloads.
	TailP99Ns float64
	// MeasureStallNs is synchronous fault latency incurred during
	// measurement.
	MeasureStallNs float64

	HeapBytes   uint64
	FringeBytes uint64
	Mappable1G  uint64
	Mappable2M  uint64
	FMFI2M      float64
}

// runner holds one run's live components.
type runner struct {
	cfg  Config
	k    *kernel.Kernel       // the kernel serving the measured task (guest if virtualized)
	host *kernel.Kernel       // host kernel (virtualized runs)
	frag *fragment.Fragmenter // the fragmenter of a fragmented run, pooled
	vm   *virt.VM
	// hpt is the host (gPA→hPA) table of a virtualized run, nil natively;
	// it selects the MMU's translation mode.
	hpt  *pagetable.Table
	m    *mmu.MMU
	task *kernel.Task
	inst *workload.Instance

	policy   fault.Policy
	zero     *zerofill.Daemon
	promoted *promote.Daemon
	hawk     *hawkeye.Daemon
	bridge   *virt.PvBridge
	// bloat tracks sparse promotions for §7-style recovery under pressure
	// (Trident borrows HawkEye's technique).
	bloat *hawkeye.Daemon
	// hostPromote re-promotes host-side mappings of guest memory after pv
	// exchanges demote them (KVM's THP/Trident machinery keeps running on
	// the host while the guest works).
	hostPromote *promote.Daemon
	// earlyTrans holds a pre-promotion measurement for budgeted runs, so
	// the promotion-completion timeline can be blended into performance
	// (Figure 13's effect: cheap pv promotion finishes almost instantly,
	// copy-based promotion leaves the application running unpromoted for a
	// while).
	earlyTrans *perfmodel.TranslationStats

	res *Result

	// ctx is checked at access-batch granularity so cancellation lands
	// within milliseconds of the deadline.
	ctx context.Context
	// inj is the live fault injector (nil unless cfg.Chaos is enabled).
	inj *chaos.Injector
	// auditErr holds the first audit failure observed by the
	// after-injection hook; phase and batch boundaries surface it.
	auditErr error

	// obsPhase names the phase currently executing, tagging time-series
	// samples; obsBase holds the cumulative counters behind the previous
	// sample so each row reports per-window deltas; stallNs mirrors the
	// measurement loop's accumulated fault stall for the sampler.
	obsPhase string
	obsBase  obsBase
	stallNs  float64

	// runs is the run-coalesced pipeline's reusable buffer, parked with
	// the machine (see acquireRunKit); NextRuns returns at most one run
	// per drawn reference, so batchAccesses capacity never reallocates.
	runs []stream.Run
	// cands is HawkEye's parked candidate buffer, handed to the measured
	// HawkEye daemon and taken back from it at release.
	cands  []hawkeye.Candidate
	oracle bool // switches off every fast path (see run)
}

// Run executes one configuration and returns its measurements.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the context is checked between
// phases and at access-batch granularity inside the population, daemon and
// measurement loops, so a cancelled or timed-out run returns promptly with
// ctx.Err() wrapped in the error. A cancelled run's partial Result is never
// returned.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return run(ctx, cfg, false)
}

// run is RunContext. The oracle, set only by this package's tests, switches
// off every fast path (translateChunk, touchPolicy); both ways give the
// same Result (DESIGN.md §5c).
func run(ctx context.Context, cfg Config, oracle bool) (*Result, error) {
	cfg.setDefaults()
	if cfg.Workload == nil {
		return nil, fmt.Errorf("sim: no workload")
	}
	r := &runner{cfg: cfg, ctx: ctx, oracle: oracle}
	r.res = &Result{Workload: cfg.Workload.Name, Policy: cfg.Policy.String()}
	if cfg.Virtualized {
		r.res.Policy = cfg.Policy.String() + "+" + cfg.HostPolicy.String()
		if cfg.Pv {
			r.res.Policy = "pv:" + r.res.Policy
		}
	}

	if err := r.phase("build", r.buildMachine); err != nil {
		return nil, err
	}
	if err := r.phase("populate", r.populate); err != nil {
		return nil, err
	}
	if err := r.phaseAudit("population"); err != nil {
		return nil, err
	}
	r.snapshotMapped(&r.res.MappedAfterFaults)
	if cfg.KhugepagedBudgetFrac > 0 && !cfg.DisablePromotion {
		if err := r.phase("measure-early", func() error {
			return r.measureEarly(cfg.Accesses / 3)
		}); err != nil {
			return nil, err
		}
	}
	if !cfg.DisablePromotion {
		if err := r.phase("daemons", r.runDaemons); err != nil {
			return nil, err
		}
	}
	if err := r.phaseAudit("daemons"); err != nil {
		return nil, err
	}
	r.snapshotMapped(&r.res.MappedFinal)
	r.collectLayout()
	if err := r.phase("measure", r.measure); err != nil {
		return nil, err
	}
	r.finish()
	r.releaseMachine()
	return r.res, nil
}

// releaseMachine parks the run's kernels for reuse: the native kernel, or
// the host and guest kernels of a virtualized run, its fragmenter and its
// run kit (MMU and scratch buffers). Called only after
// finish() — the Result holds copies, never pointers into kernel state, so
// the kernels can be reset and handed to other runs.
func (r *runner) releaseMachine() {
	if r.host != nil {
		releaseKernel(r.host)
	}
	releaseKernel(r.k)
	if r.frag != nil {
		releaseFragmenter(r.frag)
	}
	if r.hawk != nil {
		r.cands = r.hawk.Cands
	}
	releaseRunKit(runKit{m: r.m, runs: r.runs, cands: r.cands})
}

// phase brackets fn between balanced begin/end marks on the run's recorder
// (balanced even when fn fails), tags samples taken inside fn with the
// phase name, and closes with a phase-boundary sample so phases without
// access batches (Trident's daemon rounds, say) still land rows in the
// time series. With a nil recorder this is a plain call to fn.
func (r *runner) phase(name string, fn func() error) error {
	o := r.cfg.Obs
	r.obsPhase = name
	o.Phase(name, true)
	err := fn()
	if err == nil && o.Active() && o.SampleEvery > 0 {
		r.obsSample()
	}
	o.Phase(name, false)
	return err
}

// ctxErr reports a pending cancellation, wrapped so callers can still match
// context.Canceled / context.DeadlineExceeded with errors.Is.
func (r *runner) ctxErr() error {
	if r.ctx == nil {
		return nil
	}
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("sim: run cancelled: %w", err)
	}
	return nil
}

// audit runs the whole-machine coherence check over every kernel this run
// owns (guest and, when virtualized, host) plus the TLB view.
func (r *runner) audit() error {
	var views []audit.TLBView
	if r.m != nil && r.task != nil {
		views = append(views, audit.TLBView{H: r.m.TLB, Task: r.task, HostPT: r.hpt})
	}
	if err := audit.Check(audit.Machine{K: r.k, TLBs: views}); err != nil {
		return err
	}
	if r.host != nil {
		if err := audit.Check(audit.Machine{K: r.host}); err != nil {
			return fmt.Errorf("host kernel: %w", err)
		}
	}
	return nil
}

// phaseAudit surfaces any injection-time audit failure and, when auditing
// is enabled, re-checks the machine at a phase boundary.
func (r *runner) phaseAudit(phase string) error {
	if r.auditErr != nil {
		return r.auditErr
	}
	if r.cfg.AuditEvery <= 0 && r.inj == nil {
		return nil
	}
	if err := r.audit(); err != nil {
		return fmt.Errorf("sim: audit after %s: %w", phase, err)
	}
	return nil
}

// maxOrderFor returns the buddy flavour a policy needs.
func maxOrderFor(p PolicyKind) int {
	switch p {
	case PolicyTrident, PolicyTrident1GOnly, PolicyTridentNC, PolicyHugetlbfs1G:
		// Hugetlbfs 1GB reservation also needs 1GB-tracking free lists
		// (real Linux reserves at boot before fragmentation; see §2).
		return units.TridentMaxOrder
	default:
		return units.StockMaxOrder
	}
}

func (r *runner) buildMachine() error {
	cfg := &r.cfg
	memBytes := cfg.MemGB * units.Page1G

	if cfg.Virtualized {
		r.host = acquireKernel(memBytes, maxOrderFor(cfg.HostPolicy))
		hostPolicy, err := r.buildPolicy(r.host, cfg.HostPolicy, false)
		if err != nil {
			return err
		}
		guest := acquireKernel(guestMemBytes(cfg), maxOrderFor(cfg.Policy))
		vm, err := virt.New(r.host, hostPolicy, guest)
		if err != nil {
			return err
		}
		r.vm = vm
		r.hpt = vm.HostPT()
		r.k = vm.Guest
		switch cfg.HostPolicy {
		case PolicyTrident, PolicyTrident1GOnly, PolicyTridentNC:
			r.hostPromote = promote.NewTrident(r.host, zerofill.New(r.host))
		}
	} else {
		r.k = acquireKernel(memBytes, maxOrderFor(cfg.Policy))
	}
	kit := acquireRunKit(*cfg.TLB)
	r.m, r.runs, r.cands = kit.m, kit.runs, kit.cands

	if cfg.Fragment {
		footprint := uint64(float64(cfg.Workload.Footprint) * cfg.Scale)
		// Apply reclaims whole frames, so ask for whole frames.
		free := units.AlignUp(footprint+footprint/2+units.Page1G, units.Page4K)
		if free > r.k.Mem.Bytes() {
			return fmt.Errorf("sim: machine too small to fragment and fit %s", cfg.Workload.Name)
		}
		f := acquireFragmenter()
		if err := f.Apply(r.k, fragment.Config{
			Seed:           cfg.Seed + 2,
			UnmovableBytes: r.k.Mem.Bytes() / 128,
			FreeBytes:      free,
		}); err != nil {
			return err
		}
		r.frag = f
	}

	r.m.ShadowCheck = cfg.ShadowCheck

	policy, err := r.buildPolicy(r.k, cfg.Policy, true)
	if err != nil {
		return err
	}
	r.policy = policy

	r.task = r.k.NewTask(cfg.Workload.Name)
	measured := r.task
	r.k.Shootdown = func(t *kernel.Task, va, n uint64, size units.PageSize) {
		if t != measured {
			return
		}
		if !r.oracle {
			r.m.FlushRange(va, n, size)
			return
		}
		for i := uint64(0); i < n; i++ {
			r.m.FlushPage(va+i*size.Bytes(), size)
		}
	}
	r.attachChaos()
	r.attachObs()
	return nil
}

// attachObs wires trace-event emission into the run's hook points: the
// fault policy is wrapped (population faults included), promotions,
// compaction attempts, zero-fill refills and chaos injections chain onto
// their existing hooks. With event tracing off nothing is attached, so
// ordinary runs execute exactly the code they always did.
func (r *runner) attachObs() {
	o := r.cfg.Obs
	if !o.EventsOn() {
		return
	}
	r.policy = fault.Traced(r.policy, func(res fault.Result) {
		o.Advance(1)
		o.Emit(obs.EvFault, res.Size.String(), res.Size, res.Size.Bytes(), res.LatencyNs, true)
	})
	if r.promoted != nil {
		prev := r.promoted.OnPromote
		r.promoted.OnPromote = func(t *kernel.Task, va uint64, size units.PageSize, populated uint64) {
			if prev != nil {
				prev(t, va, size, populated)
			}
			o.Emit(obs.EvPromote, size.String(), size, populated, 0, true)
		}
		hookCompact(o, "compact-normal", r.promoted.Normal)
		hookCompact(o, "compact-normal-1g", r.promoted.Normal1G)
		if r.promoted.Smart != nil {
			r.promoted.Smart.OnAttempt = func(copied uint64, ok bool) {
				o.Emit(obs.EvCompact, "compact-smart", 0, copied, 0, ok)
			}
		}
	}
	if r.hawk != nil {
		hookCompact(o, "compact-normal", r.hawk.Normal)
	}
	if r.zero != nil {
		r.zero.OnRefill = func(zeroed int) {
			o.Emit(obs.EvZeroRefill, "zero-refill", 0, uint64(zeroed)*units.Page1G, 0, true)
		}
	}
	if r.inj != nil {
		prev := r.inj.OnInject
		r.inj.OnInject = func(kind chaos.Kind) {
			o.Emit(obs.EvChaos, kind.String(), 0, 0, 0, false)
			if prev != nil {
				prev(kind)
			}
		}
	}
}

func hookCompact(o *obs.Run, name string, c *compact.Normal) {
	if c == nil {
		return
	}
	c.OnAttempt = func(copied uint64, ok bool) {
		o.Emit(obs.EvCompact, name, 0, copied, 0, ok)
	}
}

// auditedInjections is how many initial injected failures each get an
// immediate whole-machine audit. Beyond it, injection-time audits thin to
// the powers of two (the full check walks every frame and page-table leaf,
// so auditing all of a high-rate run's 10⁴–10⁵ injections would dominate
// wall time); corruption introduced between audited injections is still
// caught at the next audited one, the phase boundaries, or the periodic
// AuditEvery checks.
const auditedInjections = 32

// attachChaos wires the fault injector's decision hooks into the measured
// kernel's machinery. Hooks go only on the components built for this run;
// with Chaos disabled nothing is attached and no randomness is drawn, so
// behaviour is bit-identical to a run without the knob.
func (r *runner) attachChaos() {
	if !r.cfg.Chaos.Enabled() {
		return
	}
	inj := chaos.New(r.cfg.Chaos)
	inj.OnInject = func(kind chaos.Kind) {
		if r.auditErr != nil {
			return
		}
		// decide() increments the counters before the hook, so Total
		// already includes this injection.
		if n := inj.S.Total(); n > auditedInjections && n&(n-1) != 0 {
			return
		}
		if err := r.audit(); err != nil {
			r.auditErr = fmt.Errorf("sim: audit after injected %v: %w", kind, err)
		}
	}
	r.inj = inj
	r.k.Buddy.FailAlloc = inj.BuddyAllocFails
	if r.zero != nil {
		r.zero.FailTake = inj.ZeroPoolFails
	}
	if r.promoted != nil {
		r.promoted.Abort = inj.PromoteAborts
		r.promoted.Normal.Abort = inj.CompactAborts
		if r.promoted.Smart != nil {
			r.promoted.Smart.Abort = inj.CompactAborts
		}
		if r.promoted.Normal1G != nil {
			r.promoted.Normal1G.Abort = inj.CompactAborts
		}
	}
	if r.hawk != nil {
		r.hawk.Normal.Abort = inj.CompactAborts
	}
}

// guestMemBytes sizes the VM: footprint plus headroom, whole GBs.
func guestMemBytes(cfg *Config) uint64 {
	footprint := uint64(float64(cfg.Workload.Footprint) * cfg.Scale)
	need := footprint + footprint/2 + 2*units.Page1G
	return units.AlignUp(need, units.Page1G)
}

// buildPolicy constructs the fault policy and daemons for kind on k.
// measured marks the kernel serving the measured task: only its daemons are
// retained on the runner (the host side of a virtualized run backs guest
// memory at VM creation and needs no daemons afterwards).
func (r *runner) buildPolicy(k *kernel.Kernel, kind PolicyKind, measured bool) (fault.Policy, error) {
	wl := r.cfg.Workload
	footprint := uint64(float64(wl.Footprint)*r.cfg.Scale) + 64*units.MiB
	switch kind {
	case Policy4K:
		return fault.NewBase4K(k), nil
	case PolicyTHP, PolicyHawkEye:
		p := fault.NewTHP(k)
		if measured {
			if kind == PolicyHawkEye {
				r.hawk = hawkeye.New(k)
				r.hawk.Cands = r.cands
			} else {
				r.promoted = promote.New(k, nil)
			}
		}
		return p, nil
	case PolicyHugetlbfs2M, PolicyHugetlbfs1G:
		size := units.Size2M
		if kind == PolicyHugetlbfs1G {
			size = units.Size1G
		}
		// Greedy huge-page backing can straddle alignment boundaries, so
		// reserve a little beyond the footprint (as an operator would).
		pages := int((footprint+size.Bytes()-1)/size.Bytes()) + 2
		p, _ := fault.NewHugetlbfs(k, size, pages)
		return p, nil
	case PolicyTrident, PolicyTrident1GOnly, PolicyTridentNC:
		variant := core.VariantFull
		switch kind {
		case PolicyTrident1GOnly:
			variant = core.VariantNo2M
		case PolicyTridentNC:
			variant = core.VariantNormalCompaction
		}
		sys := core.New(k, variant)
		sys.Zero.Refill(1 << 20) // pre-zero everything free, as an idle boot would
		if measured {
			r.zero = sys.Zero
			r.promoted = sys.Khugepaged
			r.bloat = hawkeye.New(k)
			r.promoted.OnPromote = r.bloat.TrackPromotion
			if r.cfg.Pv && r.vm != nil {
				r.bridge = r.vm.AttachPvExchange(r.promoted, true)
			}
		}
		return sys.Fault, nil
	}
	return nil, fmt.Errorf("sim: unknown policy %v", kind)
}

// obsBase holds the cumulative counters behind the previous time-series
// sample so each Sample reports per-window deltas.
type obsBase struct {
	acc     [units.NumPageSizes]uint64
	l2      uint64
	walks   uint64
	walkMem uint64
	faults  [units.NumPageSizes]uint64
	stall   float64
	ops     kernel.OpStats
}

// obsResetTrans re-bases the sampler's translation deltas. It must follow
// every mmu.ResetStats call (measureEarly, measure), otherwise the next
// sample's deltas would underflow against the zeroed counters.
func (r *runner) obsResetTrans() {
	r.obsBase.acc = [units.NumPageSizes]uint64{}
	r.obsBase.l2, r.obsBase.walks, r.obsBase.walkMem = 0, 0, 0
}

// obsSample appends one time-series row: translation and fault deltas
// since the previous sample plus point-in-time memory-layout gauges. It
// reads counters the simulation maintains anyway; nothing here mutates
// simulation state.
func (r *runner) obsSample() {
	var s obs.Sample
	s.Phase = r.obsPhase
	var accTot uint64
	for sz := units.PageSize(0); sz < units.NumPageSizes; sz++ {
		a := r.m.BySize[sz].Accesses
		s.Accesses[sz] = a - r.obsBase.acc[sz]
		accTot += s.Accesses[sz]
		r.obsBase.acc[sz] = a
	}
	tot := r.m.Totals()
	s.L2Hits = tot.L2Hits - r.obsBase.l2
	s.Walks = tot.Walks - r.obsBase.walks
	s.WalkMem = tot.WalkMemAccesses - r.obsBase.walkMem
	r.obsBase.l2, r.obsBase.walks, r.obsBase.walkMem = tot.L2Hits, tot.Walks, tot.WalkMemAccesses
	if accTot > 0 {
		s.L1HitRate = float64(accTot-s.L2Hits-s.Walks) / float64(accTot)
		s.WalkCycles = (float64(s.WalkMem)*perfmodel.WalkAccessCycles +
			float64(s.L2Hits)*perfmodel.L2TLBHitCycles) / float64(accTot)
	}
	s.StallNs = r.stallNs - r.obsBase.stall
	r.obsBase.stall = r.stallNs
	fs := r.policy.FaultStats()
	for sz := units.PageSize(0); sz < units.NumPageSizes; sz++ {
		s.Faults[sz] = fs.Faults[sz] - r.obsBase.faults[sz]
		r.obsBase.faults[sz] = fs.Faults[sz]
	}
	for sz := units.PageSize(0); sz < units.NumPageSizes; sz++ {
		s.Mapped[sz] = r.task.AS.PT.MappedBytes(sz)
	}
	s.FreeFrames = r.k.Mem.FreeFrames()
	for ord := 0; ord <= r.k.Buddy.MaxOrder() && ord < len(s.FreeOrders); ord++ {
		s.FreeOrders[ord] = r.k.Buddy.FreeChunks(ord)
	}
	s.FMFI2M = r.k.Buddy.FMFI(units.Order2M)
	if r.zero != nil {
		s.ZeroPool = r.zero.ZeroedAvailable()
	}
	ops := r.k.Ops
	s.KernelMaps = ops.Maps - r.obsBase.ops.Maps
	s.KernelUnmaps = ops.Unmaps - r.obsBase.ops.Unmaps
	s.KernelMoves = ops.Moves - r.obsBase.ops.Moves
	r.obsBase.ops = ops
	r.cfg.Obs.AddSample(s)
}

func (r *runner) populate() error {
	inst, err := r.cfg.Workload.Instantiate(r.k, r.task, r.touchPolicy(), r.cfg.Seed+4, r.cfg.Scale)
	if err != nil {
		return err
	}
	r.inst = inst
	return nil
}

// touchPolicy is the policy population and Extend fault through: under the
// oracle, one whose type hides fault's unexported around method, so
// fault.Around maps nothing and touch serves every fault through Handle.
func (r *runner) touchPolicy() fault.Policy {
	if r.oracle {
		return struct{ fault.Policy }{r.policy}
	}
	return r.policy
}

// runDaemons executes the background machinery to quiescence (or until the
// Figure-13 CPU budget is exhausted).
func (r *runner) runDaemons() error {
	totalBudget := 0.0
	if r.cfg.KhugepagedBudgetFrac > 0 {
		totalBudget = r.cfg.KhugepagedBudgetFrac * RefRuntimeNs
	}
	const rounds = 12
	var spent float64
	for round := 0; round < rounds; round++ {
		if err := r.ctxErr(); err != nil {
			return err
		}
		// One tick per daemon round spreads promotion/compaction events
		// over simulated time even when the round drives no accesses.
		r.cfg.Obs.Advance(1)
		if r.zero != nil {
			r.zero.Refill(4)
		}
		// Give the access-bit samplers something to read.
		if r.hawk != nil {
			if err := r.accessBatch(50_000); err != nil {
				return err
			}
		}
		budget := 0.0
		if totalBudget > 0 {
			budget = (totalBudget - spent) / float64(rounds-round)
			if budget <= 0 {
				break
			}
		}
		progressed := false
		switch {
		case r.promoted != nil:
			before := r.promoted.S.Promoted
			ns, err := r.promoted.ScanTask(r.task, budget)
			spent += ns
			if err != nil {
				return err
			}
			progressed = r.promoted.S.Promoted != before
			if r.bridge != nil {
				r.bridge.Flush()
				r.m.FlushAll() // host-side remaps invalidate combined entries
			}
		case r.hawk != nil:
			before := r.hawk.S.Promoted2M
			ns, err := r.hawk.ScanTask(r.task, budget)
			spent += ns
			if err != nil {
				return err
			}
			progressed = r.hawk.S.Promoted2M != before
		default:
			return nil // static policies have no daemons
		}
		if totalBudget > 0 && spent >= totalBudget {
			break
		}
		if !progressed && r.hawk == nil {
			break
		}
	}
	// The hypervisor's own large-page machinery keeps running: after pv
	// exchanges fragment the host-side backing (each exchange demotes a
	// host 1GB mapping to 2MB), host khugepaged re-promotes it. This is
	// host CPU, not guest vCPU, so it does not count against the guest's
	// khugepaged budget — shifting that work below the guest is precisely
	// Trident_pv's bargain (§6).
	if r.hostPromote != nil && r.vm != nil && r.vm.S.PagesExchanged > 0 {
		for pass := 0; pass < 3; pass++ {
			ns, err := r.hostPromote.ScanTask(r.vm.HostTask, 0)
			if err != nil {
				return err
			}
			if ns == 0 {
				break
			}
		}
		r.m.FlushAll()
	}
	// Memory pressure: recover bloat by demoting sparse huge pages, the
	// HawkEye technique Trident adopts in §7.
	if r.bloat != nil {
		free := r.k.Mem.FreeFrames() * units.Page4K
		if low := r.k.Mem.Bytes() / 10; free < low {
			r.bloat.RecoverBloat(low - free)
		}
	}
	return nil
}

// measureEarly samples the pre-promotion translation behaviour and resets
// the MMU statistics afterwards.
func (r *runner) measureEarly(n int) error {
	r.m.ResetStats()
	r.obsResetTrans()
	if err := r.accessBatch(n); err != nil {
		return err
	}
	t := r.m.Totals()
	r.earlyTrans = &t
	r.m.ResetStats()
	r.obsResetTrans()
	return nil
}

// accessBatch drives n references through the MMU (setting PTE access bits)
// without recording request latencies; faults are serviced silently. The
// context is checked every batchAccesses references.
func (r *runner) accessBatch(n int) error {
	for i := 0; i < n; {
		c := min(batchAccesses, n-i)
		r.translateChunk(c)
		i += c
		// Boundary work fires after each full batch, never after a short
		// tail.
		if c < batchAccesses {
			continue
		}
		if r.cfg.Obs.BatchDone(batchAccesses) {
			r.obsSample()
		}
		if err := r.ctxErr(); err != nil {
			return err
		}
		if r.auditErr != nil {
			return r.auditErr
		}
	}
	return nil
}

// translateChunk draws the next c references and translates them, servicing
// faults, through the run-coalesced pipeline — or, under the oracle,
// through the one-reference-at-a-time loop. It returns the chunk's
// accumulated synchronous fault stall.
func (r *runner) translateChunk(c int) float64 {
	if !r.oracle {
		return r.translateRuns(r.inst.NextRuns(r.runsBuf(), c))
	}
	var stall float64
	for j := 0; j < c; j++ {
		va, write := r.inst.Next()
		stall += r.translateWithFaults(va, write)
	}
	return stall
}

// runsBuf returns the run's reusable page-run buffer.
func (r *runner) runsBuf() []stream.Run {
	if r.runs == nil {
		r.runs = make([]stream.Run, 0, batchAccesses)
	}
	return r.runs
}

// translateRuns drives one chunk of page runs through mmu.TranslateRuns,
// servicing faults between re-entries; each re-entry re-probes the
// remainder from scratch, because the fault handler may have remapped pages
// and shot down TLB entries. Fault servicing keeps translateWithFaults'
// exact per-reference semantics: only a run's leading reference can fault
// (its resolution maps the page for the rest of the run), a faulting
// reference is served by one Handle and then translated again by the
// re-entry, which must not fault on it (a successful Handle maps the page,
// so a second fault is a fault-policy bug and panics), and skipping a
// reference after a Handle error decrements the run's Len so the remainder
// re-coalesces in place. The remainder keeps the leading reference's VA and
// write flag, which is observably identical: every consumer of a reference
// depends on it only through its page (fault policies align the VA to the
// mapped size, TLB tags shift it down) and the dirty bit set by
// pagetable.Translate is never read back (DESIGN.md §5c).
func (r *runner) translateRuns(runs []stream.Run) float64 {
	r.runs = runs[:0] // retain a grown buffer for the next batch
	var stall float64
	gpt := r.task.AS.PT
	off := 0
	handled := false // Handle just served runs[off]'s leading reference
	for off < len(runs) {
		n := r.m.TranslateRuns(gpt, r.hpt, runs[off:])
		if n == 0 && handled {
			r.unmappedAfterHandle(runs[off].VA)
		}
		off += n
		if off == len(runs) {
			break
		}
		// runs[off]'s leading reference faulted.
		res, err := r.policy.Handle(r.task, runs[off].VA)
		if err != nil {
			// The address lies in a gap VMA page that cannot be mapped —
			// should not happen; treat as a skipped access.
			if runs[off].Len--; runs[off].Len == 0 {
				off++
			}
			handled = false
			continue
		}
		stall += res.LatencyNs
		handled = true
	}
	return stall
}

// unmappedAfterHandle panics for a reference that still faults after a
// successful Handle: Handle maps the faulting page, so this is a
// fault-policy bug, not a reference to skip.
func (r *runner) unmappedAfterHandle(va uint64) {
	panic(fmt.Sprintf("sim: %v policy served a fault at %#x without mapping it", r.cfg.Policy, va))
}

// translateWithFaults translates one reference, serving a fault with one
// Handle and translating again. As in translateRuns, a successful Handle
// that leaves the page unmapped panics; a Handle error skips the
// reference.
func (r *runner) translateWithFaults(va uint64, write bool) float64 {
	if r.m.Translate(r.task.AS.PT, r.hpt, va, write) {
		return 0
	}
	res, err := r.policy.Handle(r.task, va)
	if err != nil {
		// The address lies in a gap VMA page that cannot be mapped —
		// should not happen; treat as a skipped access.
		return 0
	}
	if !r.m.Translate(r.task.AS.PT, r.hpt, va, write) {
		r.unmappedAfterHandle(va)
	}
	return res.LatencyNs
}

func (r *runner) snapshotMapped(out *[units.NumPageSizes]uint64) {
	for s := units.PageSize(0); s < units.NumPageSizes; s++ {
		out[s] = r.task.AS.PT.MappedBytes(s)
	}
}

func (r *runner) collectLayout() {
	r.res.HeapBytes = r.inst.HeapBytes()
	r.res.FringeBytes = r.inst.FringeBytes()
	r.res.Mappable1G = r.task.AS.MappableBytes(units.Size1G)
	r.res.Mappable2M = r.task.AS.MappableBytes(units.Size2M)
	r.res.FMFI2M = r.k.Buddy.FMFI(units.Order2M)
}

// batchAccesses is the sim loop's batch granularity: cancellation is
// checked, and throughput workloads' requests flushed, every this many
// sampled references.
const batchAccesses = 2000

// measure runs the sampled reference stream and, for throughput workloads,
// groups accesses into requests to produce a p99 latency. Cancellation and
// (when enabled) the periodic invariant audit run at batch boundaries.
func (r *runner) measure() error {
	r.m.ResetStats()
	r.obsResetTrans()
	wl := r.cfg.Workload

	// Every full batch closes one request and, for a store that keeps
	// inserting, extends the heap once.
	var reqHist stats.Histogram
	if wl.Throughput {
		reqHist.Grow(r.cfg.Accesses / batchAccesses)
		if wl.RequestInsertBytes > 0 {
			r.inst.ReserveExtends(r.cfg.Accesses / batchAccesses)
		}
	}
	var reqWalkBase perfmodel.TranslationStats
	var reqStall float64
	var totalStall float64

	for i := 0; i < r.cfg.Accesses; {
		c := min(batchAccesses, r.cfg.Accesses-i)
		stall := r.translateChunk(c)
		totalStall += stall
		reqStall += stall
		i += c
		// Boundary work — request flush, observability sample, cancellation
		// and audit checks — fires after each full batch, never after a
		// short tail.
		if c < batchAccesses {
			continue
		}
		if wl.Throughput {
			// The store keeps inserting: allocation interleaves with serving.
			if wl.RequestInsertBytes > 0 {
				if ns, err := r.inst.Extend(r.touchPolicy(), wl.RequestInsertBytes); err == nil {
					reqStall += ns
				}
			}
			// Close one request window (one batch of accesses): everything
			// accumulated since the previous flush — walk cycles, L2
			// overheads, fault stalls — lands in one recorded request
			// latency.
			tot := r.m.Totals()
			walkCycles := float64(tot.WalkMemAccesses-reqWalkBase.WalkMemAccesses)*perfmodel.WalkAccessCycles +
				float64(tot.L2Hits-reqWalkBase.L2Hits)*perfmodel.L2TLBHitCycles
			lat := wl.RequestBaseNs + perfmodel.CyclesToNs(walkCycles*wl.Model.Overlap) + reqStall
			reqHist.Record(lat)
			reqWalkBase = tot
			reqStall = 0
		}
		r.stallNs = totalStall
		if r.cfg.Obs.BatchDone(batchAccesses) {
			r.obsSample()
		}
		if err := r.ctxErr(); err != nil {
			return err
		}
		if r.auditErr != nil {
			return r.auditErr
		}
		// Every chunk before a short tail is full, so i counts whole batches.
		if r.cfg.AuditEvery > 0 && (i/batchAccesses)%r.cfg.AuditEvery == 0 {
			if err := r.audit(); err != nil {
				return fmt.Errorf("sim: audit at access %d: %w", i, err)
			}
		}
	}
	r.res.Trans = r.m.Totals()
	r.res.MeasureStallNs = totalStall
	if wl.Throughput && reqHist.Count() > 0 {
		r.res.TailP99Ns = reqHist.Percentile(99)
	}
	return nil
}

func (r *runner) finish() {
	res := r.res
	res.Fault = *r.policy.FaultStats()
	var daemonNs float64
	if r.promoted != nil {
		s := r.promoted.S
		res.Promote = &s
		res.BloatBytes = s.BloatBytes
		daemonNs += r.promoted.TotalNs()
		if r.promoted.Smart != nil {
			cs := r.promoted.Smart.Stats
			res.SmartCompact = &cs
		}
		if r.promoted.Normal1G != nil {
			cs := r.promoted.Normal1G.Stats
			res.Normal1GCompact = &cs
		}
		ns := r.promoted.Normal.Stats
		res.NormalCompact = &ns
	}
	contention := 0.0
	if r.hawk != nil {
		hs := r.hawk.S
		res.HawkEye = &hs
		res.BloatBytes = hs.BloatBytes
		daemonNs += r.hawk.TotalNs()
		ns := r.hawk.Normal.Stats
		res.NormalCompact = &ns
		// HawkEye's kbinmanager contends with the application for mm locks,
		// the paper's explanation for its fragmented-memory regressions on
		// Redis and Memcached (§7).
		if r.cfg.Fragment {
			contention = 0.04
		} else {
			contention = 0.008
		}
	}
	if r.vm != nil {
		vs := r.vm.S
		res.VirtStats = &vs
	}
	if r.inj != nil {
		cs := r.inj.S
		res.Chaos = &cs
	}
	// Compaction/promotion copying does not just consume CPU: it pollutes
	// caches and contends for memory bandwidth with the application (§5.1.3
	// "Copying data creates contention in memory controllers and pollutes
	// caches"), so daemon time is charged at double weight.
	overhead := daemonNs*2/RefRuntimeNs + contention
	if r.cfg.KhugepagedBudgetFrac > 0 && overhead > r.cfg.KhugepagedBudgetFrac {
		overhead = r.cfg.KhugepagedBudgetFrac
	}
	if overhead > 0.5 {
		overhead = 0.5
	}
	res.DaemonOverhead = overhead
	trans := res.Trans
	if r.vm != nil {
		// A 2D walk's memory accesses land overwhelmingly in the cache
		// hierarchy: the nested walker revisits the same hot guest and EPT
		// structures over and over (the effect 2D page-walk caching exploits,
		// Bhargava et al. [21]). Charge nested accesses at 40% of the native
		// walk-access cost; the raw architectural counts stay in res.Trans.
		trans.WalkMemAccesses = uint64(float64(trans.WalkMemAccesses) * 0.4)
	}
	res.Perf = r.cfg.Workload.Model.Evaluate(trans, overhead)
	if r.earlyTrans != nil && r.cfg.KhugepagedBudgetFrac > 0 {
		// Budgeted khugepaged promotes at KhugepagedBudgetFrac of a vCPU, so
		// promotion completes after daemonNs/budgetFrac of run time; until
		// then the application runs at the pre-promotion translation cost.
		early := *r.earlyTrans
		if r.vm != nil {
			early.WalkMemAccesses = uint64(float64(early.WalkMemAccesses) * 0.4)
		}
		earlyPerf := r.cfg.Workload.Model.Evaluate(early, overhead)
		var guestDaemonNs float64
		if r.promoted != nil {
			guestDaemonNs = r.promoted.TotalNs()
		} else if r.hawk != nil {
			guestDaemonNs = r.hawk.TotalNs()
		}
		frac := guestDaemonNs / r.cfg.KhugepagedBudgetFrac / RefRuntimeNs
		if frac > 1 {
			frac = 1
		}
		res.Perf.CyclesPerAccess = frac*earlyPerf.CyclesPerAccess + (1-frac)*res.Perf.CyclesPerAccess
		res.Perf.WalkCycleFraction = frac*earlyPerf.WalkCycleFraction + (1-frac)*res.Perf.WalkCycleFraction
	}
	// Fold measurement-phase stalls into cycles per access (they are
	// per-access costs of the sampled window).
	if res.Trans.Accesses > 0 && res.MeasureStallNs > 0 {
		stallCycles := res.MeasureStallNs * perfmodel.CPUGHz / float64(res.Trans.Accesses)
		res.Perf.CyclesPerAccess += stallCycles
	}
}
