// Command tridenttop is the fleet operator's terminal dashboard for a
// running experiments process (batch or -serve): it polls the process's
// observability endpoints — /metrics (Prometheus text), /progress (live
// experiment state) and, when the sweep service is mounted, /sweeps — and
// renders one consolidated live view: sweeps by state, queue and
// admission health, job throughput and latency, memo-tier traffic and
// store durability incidents.
//
//	tridenttop -addrfile svc/addr            # live view, refreshed every 2s
//	tridenttop -addr 127.0.0.1:8080 -once    # one plain snapshot (CI, scripts)
//
// It is read-only and stdlib-only: plain ANSI (clear + home) rather than
// a curses library, degrading to sequential snapshots on a dumb terminal.
// -once prints a single snapshot without escape codes and exits 0 if the
// endpoints were reachable — the CI service gate uses it as its mid-sweep
// observability probe.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		addr     = flag.String("addr", "", "experiments process address (host:port)")
		addrFile = flag.String("addrfile", "", "read the address from this file (written by experiments -serve)")
		interval = flag.Duration("interval", 2*time.Second, "refresh period")
		once     = flag.Bool("once", false, "print one plain snapshot (no escape codes) and exit")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(),
			"Usage: tridenttop [-addr host:port | -addrfile file] [-interval d] [-once]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	base, err := baseURL(*addr, *addrFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tridenttop:", err)
		os.Exit(2)
	}
	if *once {
		snap, err := collect(base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tridenttop:", err)
			os.Exit(1)
		}
		os.Stdout.WriteString(render(base, snap, false))
		return
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		snap, err := collect(base)
		if err != nil {
			fmt.Fprintf(os.Stdout, "\x1b[2J\x1b[H(unreachable) %s: %v\n", base, err)
		} else {
			os.Stdout.WriteString(render(base, snap, true))
		}
		select {
		case <-stop:
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}

func baseURL(addr, addrFile string) (string, error) {
	if addr == "" && addrFile != "" {
		data, err := os.ReadFile(addrFile)
		if err != nil {
			return "", fmt.Errorf("reading -addrfile: %w", err)
		}
		addr = strings.TrimSpace(string(data))
	}
	if addr == "" {
		return "", fmt.Errorf("no address: pass -addr or -addrfile")
	}
	return "http://" + addr, nil
}

// snapshot is everything one refresh gathered.
type snapshot struct {
	metrics  map[string]float64 // series name (incl. labels) → value
	progress []experimentProgress
	sweeps   []sweepStatus // nil when the service API is not mounted
	when     time.Time
}

// experimentProgress mirrors runner.ExperimentProgress.
type experimentProgress struct {
	Label     string  `json:"label"`
	Jobs      int     `json:"jobs"`
	Running   int     `json:"running"`
	Done      int     `json:"done"`
	Failed    int     `json:"failed"`
	CacheHits int     `json:"cache_hits"`
	StoreHits int     `json:"store_hits"`
	Active    bool    `json:"active"`
	WallMs    float64 `json:"wall_ms"`
}

// sweepStatus mirrors the service's Sweep JSON.
type sweepStatus struct {
	ID        string `json:"id"`
	Client    string `json:"client"`
	State     string `json:"state"`
	Jobs      int    `json:"jobs"`
	Completed int    `json:"completed"`
	Attempts  int    `json:"attempts"`
	Error     string `json:"error"`
}

var client = &http.Client{Timeout: 5 * time.Second}

func collect(base string) (*snapshot, error) {
	snap := &snapshot{when: time.Now()}
	body, err := get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	snap.metrics = parsePrometheus(body)
	if body, err := get(base + "/progress"); err == nil {
		json.Unmarshal(body, &snap.progress) //nolint:errcheck // partial view is fine
	}
	// /sweeps 404s on a batch run (service not mounted); that is not an
	// error, the dashboard just omits the sweep sections.
	if body, err := get(base + "/sweeps"); err == nil {
		json.Unmarshal(body, &snap.sweeps) //nolint:errcheck
	}
	return snap, nil
}

func get(url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return body, nil
}

// parsePrometheus reads the text exposition into series → value. Label
// sets are kept verbatim as part of the series name, matching how the obs
// registry renders them deterministically.
func parsePrometheus(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

func render(base string, s *snapshot, ansi bool) string {
	var b strings.Builder
	if ansi {
		b.WriteString("\x1b[2J\x1b[H")
	}
	fmt.Fprintf(&b, "tridenttop  %s  %s\n", base, s.when.Format("15:04:05"))

	if s.sweeps != nil {
		m := s.metrics
		fmt.Fprintf(&b, "\nSERVICE  queue %s  inflight %s  subscribers %s  draining %s\n",
			num(m["trident_service_queue_depth"]), num(m["trident_service_jobs_inflight"]),
			num(m["trident_service_stream_subscribers"]), num(m["trident_service_draining"]))
		fmt.Fprintf(&b, "ADMISSION  admitted %s  rejected %s  retries %s  interrupted %s  notes %s  events %s\n",
			num(m["trident_service_sweeps_admitted_total"]), num(m["trident_service_sweeps_rejected_total"]),
			num(m["trident_service_sweep_retries_total"]), num(m["trident_service_sweeps_interrupted_total"]),
			num(m["trident_service_durability_notes_total"]), num(m["trident_service_events_total"]))
		fmt.Fprintf(&b, "JOB WALL  p50 %sms  p90 %sms  p99 %sms  (%s delivered)\n",
			num(m[`trident_service_job_wall_ms{quantile="0.5"}`]),
			num(m[`trident_service_job_wall_ms{quantile="0.9"}`]),
			num(m[`trident_service_job_wall_ms{quantile="0.99"}`]),
			num(m["trident_service_job_wall_ms_count"]))

		fmt.Fprintf(&b, "\nSWEEPS (%d)\n", len(s.sweeps))
		sweeps := append([]sweepStatus(nil), s.sweeps...)
		// Active first, then queued, then the rest; stable by id inside a band.
		rank := map[string]int{"running": 0, "queued": 1, "interrupted": 2, "failed": 3, "done": 4}
		sort.SliceStable(sweeps, func(i, j int) bool {
			if rank[sweeps[i].State] != rank[sweeps[j].State] {
				return rank[sweeps[i].State] < rank[sweeps[j].State]
			}
			return sweeps[i].ID < sweeps[j].ID
		})
		for _, sw := range sweeps {
			bar := progressBar(sw.Completed, sw.Jobs, 20)
			fmt.Fprintf(&b, "  %s  %-12s %s %3d/%-3d durable  attempts=%d",
				sw.ID, sw.State, bar, sw.Completed, sw.Jobs, sw.Attempts)
			if sw.Client != "" {
				fmt.Fprintf(&b, "  client=%s", sw.Client)
			}
			if sw.Error != "" {
				fmt.Fprintf(&b, "  (%s)", trim(sw.Error, 60))
			}
			b.WriteByte('\n')
		}
	}

	if len(s.progress) > 0 {
		fmt.Fprintf(&b, "\nEXPERIMENTS\n")
		for _, p := range s.progress {
			marker := " "
			if p.Active {
				marker = "*"
			}
			fmt.Fprintf(&b, "  %s %-24s %s %3d/%-3d done  run %d  fail %d  cache %d  store %d\n",
				marker, trim(p.Label, 24), progressBar(p.Done, p.Jobs, 20),
				p.Done, p.Jobs, p.Running, p.Failed, p.CacheHits, p.StoreHits)
		}
	}

	m := s.metrics
	fmt.Fprintf(&b, "\nMEMO  cache hit %s  miss %s  store hit %s  miss %s  corrupt %s  io-retries %s\n",
		num(m["trident_cache_hits_total"]), num(m["trident_cache_misses_total"]),
		num(m["trident_store_hits_total"]), num(m["trident_store_misses_total"]),
		num(m["trident_store_corrupt_total"]), num(m["trident_store_retries_total"]))
	fmt.Fprintf(&b, "JOBS  queued %s  running %s  done %s  failed %s\n",
		num(m["trident_jobs_queued"]), num(m["trident_jobs_running"]),
		num(m["trident_jobs_done"]), num(m["trident_jobs_failed"]))
	return b.String()
}

func num(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func progressBar(done, total, width int) string {
	if total <= 0 {
		return "[" + strings.Repeat(" ", width) + "]"
	}
	fill := done * width / total
	if fill > width {
		fill = width
	}
	return "[" + strings.Repeat("=", fill) + strings.Repeat(" ", width-fill) + "]"
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
