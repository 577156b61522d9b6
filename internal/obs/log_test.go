package obs

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestCorrelatedHandlerInjectsContextAttrs: a record logged with a
// WithCorr context carries the correlation attributes; one logged with a
// bare context does not.
func TestCorrelatedHandlerInjectsContextAttrs(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, true, slog.LevelInfo)

	ctx := WithCorr(context.Background(), slog.String("sweep_id", "abc123"))
	log.InfoContext(ctx, "admitted")
	if !strings.Contains(buf.String(), `"sweep_id":"abc123"`) {
		t.Fatalf("correlated record missing sweep_id: %s", buf.String())
	}

	buf.Reset()
	log.InfoContext(context.Background(), "uncorrelated")
	if strings.Contains(buf.String(), "sweep_id") {
		t.Fatalf("uncorrelated record leaked an attribute: %s", buf.String())
	}
}

// TestWithCorrAccumulates: nested WithCorr calls merge rather than
// replace, so a request id and a sweep id can both travel.
func TestWithCorrAccumulates(t *testing.T) {
	ctx := WithCorr(context.Background(), slog.String("req_id", "r1"))
	ctx = WithCorr(ctx, slog.String("sweep_id", "s1"))
	attrs := CorrAttrs(ctx)
	if len(attrs) != 2 || attrs[0].Key != "req_id" || attrs[1].Key != "sweep_id" {
		t.Fatalf("CorrAttrs = %v, want [req_id sweep_id]", attrs)
	}

	var buf bytes.Buffer
	NewLogger(&buf, true, slog.LevelInfo).InfoContext(ctx, "both")
	out := buf.String()
	if !strings.Contains(out, `"req_id":"r1"`) || !strings.Contains(out, `"sweep_id":"s1"`) {
		t.Fatalf("merged attrs missing: %s", out)
	}
}

// TestCorrelatedIdempotent: double-wrapping must not duplicate attributes.
func TestCorrelatedIdempotent(t *testing.T) {
	var buf bytes.Buffer
	h := Correlated(Correlated(slog.NewJSONHandler(&buf, nil)))
	log := slog.New(h)
	log.InfoContext(WithCorr(context.Background(), slog.String("k", "v")), "x")
	if n := strings.Count(buf.String(), `"k":"v"`); n != 1 {
		t.Fatalf("attribute emitted %d times, want 1: %s", n, buf.String())
	}
}

// TestRegistryServeHTTPMethods pins the /metrics HTTP contract: GET serves
// the exposition with the versioned Content-Type, HEAD serves headers
// only, anything else is 405 with an Allow header — never an empty 200.
func TestRegistryServeHTTPMethods(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("t_total", "test counter", func() float64 { return 1 })

	do := func(method string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		reg.ServeHTTP(rec, httptest.NewRequest(method, "/metrics", nil))
		return rec
	}

	get := do(http.MethodGet)
	if get.Code != http.StatusOK ||
		!strings.Contains(get.Header().Get("Content-Type"), "text/plain; version=0.0.4") ||
		!strings.Contains(get.Body.String(), "t_total 1") {
		t.Fatalf("GET = %d %q body %q", get.Code, get.Header().Get("Content-Type"), get.Body.String())
	}

	head := do(http.MethodHead)
	if head.Code != http.StatusOK || head.Body.Len() != 0 ||
		!strings.Contains(head.Header().Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("HEAD = %d, %d body bytes, Content-Type %q",
			head.Code, head.Body.Len(), head.Header().Get("Content-Type"))
	}

	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		rec := do(method)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s = %d, want 405", method, rec.Code)
		}
		if rec.Header().Get("Allow") != "GET, HEAD" {
			t.Errorf("%s Allow = %q, want \"GET, HEAD\"", method, rec.Header().Get("Allow"))
		}
	}
}

// TestCounterFunc: scrape-time counters render with the counter type.
func TestCounterFunc(t *testing.T) {
	reg := NewRegistry()
	n := 41.0
	reg.CounterFunc("t_fn_total", "scrape-time counter", func() float64 { n++; return n })
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE t_fn_total counter") || !strings.Contains(out, "t_fn_total 42") {
		t.Fatalf("exposition:\n%s", out)
	}
}
