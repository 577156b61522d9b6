package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/stats"
)

// Registry is a minimal Prometheus-style metrics registry: named counters,
// gauges and summaries with a deterministic text exposition (metrics are
// rendered sorted by name). It serves the live `/metrics` endpoint of
// cmd/experiments; simulated-time observability lives in Run/Observer —
// the registry is explicitly on the wall-clock side of the fence.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

type metric struct {
	name, help, typ string
	collect         func(emit func(name string, v float64))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) register(name, help, typ string, collect func(emit func(string, float64))) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.metrics[name] = &metric{name: name, help: help, typ: typ, collect: collect}
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func(emit func(string, float64)) {
		emit(name, fn())
	})
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be monotonically non-decreasing (it typically reads an
// atomic counter owned by the instrumented component); the registry only
// declares the type, it cannot enforce monotonicity.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", func(emit func(string, float64)) {
		emit(name, fn())
	})
}

// GaugeSeriesFunc registers a gauge whose labeled series are produced by
// fn at scrape time: fn calls emit once per series with the full series
// name (e.g. `name{state="running"}`). fn must emit series in a fixed
// order so the exposition stays deterministic.
func (r *Registry) GaugeSeriesFunc(name, help string, fn func(emit func(series string, v float64))) {
	r.register(name, help, "gauge", fn)
}

// Summary collects observations and exposes quantiles, count and sum,
// built on stats.Histogram. Safe for concurrent use.
type Summary struct {
	mu        sync.Mutex
	h         stats.Histogram
	quantiles []float64
}

// Observe records one observation.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	s.h.Record(v)
	s.mu.Unlock()
}

// Summary registers and returns a summary exposing the given quantiles
// (values in (0,1), e.g. 0.5, 0.99).
func (r *Registry) Summary(name, help string, quantiles ...float64) *Summary {
	s := &Summary{quantiles: quantiles}
	r.register(name, help, "summary", func(emit func(string, float64)) {
		s.mu.Lock()
		defer s.mu.Unlock()
		ps := make([]float64, len(s.quantiles))
		for i, q := range s.quantiles {
			ps[i] = q * 100
		}
		vals := s.h.Quantiles(ps)
		for i, q := range s.quantiles {
			emit(fmt.Sprintf("%s{quantile=%q}", name, trimQ(q)), vals[i])
		}
		n := s.h.Count()
		emit(name+"_sum", s.h.Mean()*float64(n))
		emit(name+"_count", float64(n))
	})
	return s
}

func trimQ(q float64) string {
	s := fmt.Sprintf("%g", q)
	return s
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, sorted by metric name for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	ms := make([]*metric, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		ms = append(ms, r.metrics[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.typ)
		m.collect(func(series string, v float64) {
			fmt.Fprintf(&b, "%s %g\n", series, v)
		})
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ServeHTTP implements http.Handler, serving the text exposition on GET.
// HEAD returns the headers alone (load balancers probe with it); any other
// method is 405 with an Allow header, not a confusing empty 200. A request
// whose context is already cancelled (client hung up between accept and
// dispatch) is skipped: collectors walk live state and there is no one
// left to read the result.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Context().Err() != nil {
		return
	}
	switch req.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	case http.MethodHead:
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
	default:
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed; /metrics is read-only", http.StatusMethodNotAllowed)
	}
}
