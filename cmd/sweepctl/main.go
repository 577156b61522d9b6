// Command sweepctl talks to the sweep service (experiments -serve): it
// submits workloads × policies grids, watches their durable progress,
// follows their live event streams, and fetches finished reports.
//
//	sweepctl -addrfile svc/addr submit -workloads GUPS,Redis -policies 4k,trident
//	sweepctl -addr 127.0.0.1:8080 status <id>
//	sweepctl -addr 127.0.0.1:8080 wait <id>            # until done (or failed)
//	sweepctl -addr 127.0.0.1:8080 wait -completed 1 <id>  # until 1 sim is durable
//	sweepctl -addr 127.0.0.1:8080 tail <id>            # raw NDJSON event stream
//	sweepctl -addr 127.0.0.1:8080 tail -csv <id> > report.csv  # stream == report
//	sweepctl -addr 127.0.0.1:8080 report <id> > report.csv
//	sweepctl -addr 127.0.0.1:8080 list
//
// submit prints the sweep id alone on stdout so scripts can capture it;
// everything else human goes to stderr. Exit status: 0 on success, 1 on
// a failed sweep or transport error, 2 on usage errors.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		addr     = flag.String("addr", "", "service address (host:port)")
		addrFile = flag.String("addrfile", "", "read the service address from this file (written by experiments -serve)")
		timeout  = flag.Duration("timeout", 5*time.Minute, "overall deadline for wait")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(),
			"Usage: sweepctl [-addr host:port | -addrfile file] <submit|status|wait|tail|report|list> ...\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	base, err := baseURL(*addr, *addrFile)
	if err != nil {
		fatal(err)
	}
	switch cmd, args := flag.Arg(0), flag.Args()[1:]; cmd {
	case "submit":
		err = submit(base, args)
	case "status":
		err = status(base, args)
	case "wait":
		err = wait(base, args, *timeout)
	case "tail":
		err = tail(base, args, *timeout)
	case "report":
		err = report(base, args)
	case "list":
		err = list(base)
	default:
		fmt.Fprintf(os.Stderr, "sweepctl: unknown command %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweepctl:", err)
	os.Exit(1)
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
		return "", fmt.Errorf("no service address: pass -addr or -addrfile")
	}
	return "http://" + addr, nil
}

// sweepStatus mirrors the service's Sweep JSON; only the fields sweepctl
// reads are declared.
type sweepStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Jobs      int    `json:"jobs"`
	Completed int    `json:"completed"`
	Attempts  int    `json:"attempts"`
	Error     string `json:"error"`
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, v)
}

func submit(base string, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		workloads = fs.String("workloads", "GUPS", "comma-separated Table-2 workload names")
		policies  = fs.String("policies", "4k,thp,trident", "comma-separated policy names")
		client    = fs.String("client", "", "client name for fairness accounting")
		memGB     = fs.Uint64("mem", 0, "physical memory GB (0 = default)")
		scale     = fs.Float64("scale", 0, "footprint scale factor (0 = default)")
		accesses  = fs.Int("accesses", 0, "sampled references (0 = default)")
		seed      = fs.Uint64("seed", 0, "random seed (0 = default)")
		fragment  = fs.Bool("fragment", false, "pre-fragment physical memory")
		deadline  = fs.Duration("deadline", 0, "sweep deadline budget (0 = service default)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	req := map[string]any{
		"workloads": strings.Split(*workloads, ","),
		"policies":  strings.Split(*policies, ","),
	}
	if *client != "" {
		req["client"] = *client
	}
	if *memGB > 0 {
		req["mem_gb"] = *memGB
	}
	if *scale > 0 {
		req["scale"] = *scale
	}
	if *accesses > 0 {
		req["accesses"] = *accesses
	}
	if *seed > 0 {
		req["seed"] = *seed
	}
	if *fragment {
		req["fragment"] = true
	}
	if *deadline > 0 {
		req["deadline_ms"] = deadline.Milliseconds()
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/sweeps", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	respBody, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			return fmt.Errorf("submit rejected: %s (retry after %ss): %s", resp.Status, ra, strings.TrimSpace(string(respBody)))
		}
		return fmt.Errorf("submit rejected: %s: %s", resp.Status, strings.TrimSpace(string(respBody)))
	}
	var sw sweepStatus
	if err := json.Unmarshal(respBody, &sw); err != nil {
		return fmt.Errorf("decoding submit response: %w", err)
	}
	fmt.Fprintf(os.Stderr, "sweep %s: %s (%d jobs)\n", sw.ID, sw.State, sw.Jobs)
	fmt.Println(sw.ID)
	return nil
}

func fetch(base, id string) (sweepStatus, error) {
	var sw sweepStatus
	err := getJSON(base+"/sweeps/"+id, &sw)
	return sw, err
}

func status(base string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: sweepctl status <id>")
	}
	sw, err := fetch(base, args[0])
	if err != nil {
		return err
	}
	printStatus(sw)
	return nil
}

func printStatus(sw sweepStatus) {
	fmt.Printf("%s  %-12s %d/%d jobs durable  attempts=%d", sw.ID, sw.State, sw.Completed, sw.Jobs, sw.Attempts)
	if sw.Error != "" {
		fmt.Printf("  (%s)", sw.Error)
	}
	fmt.Println()
}

// Polling backoff bounds: wait starts eager (a short sweep should return
// promptly) and decays toward pollMax while nothing changes, resetting
// whenever the sweep makes observable progress. This replaces the old
// fixed 50ms busy-poll, which hammered an idle service ~20×/s for the
// whole life of a long sweep.
const (
	pollMin = 25 * time.Millisecond
	pollMax = 1 * time.Second
)

// wait blocks until the sweep is done (or, with -completed N, until N of
// its simulations are in the durable result store — the hook the crash-recovery
// gate uses to kill the service only after real progress exists). It polls,
// backing off exponentially (pollMin→pollMax, reset on progress) and
// honoring a Retry-After from the service; tail narrates the live event
// stream instead.
func wait(base string, args []string, timeout time.Duration) error {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	completed := fs.Int("completed", 0, "return once this many simulations are durable (0 = wait for the whole sweep)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sweepctl wait [-completed N] <id>")
	}
	id := fs.Arg(0)
	deadline := time.Now().Add(timeout)

	var last sweepStatus
	pause := pollMin
	for {
		sw, retryAfter, err := fetchForPoll(base, id)
		if err != nil {
			return err
		}
		switch {
		case *completed > 0 && sw.Completed >= *completed:
			printStatus(sw)
			return nil
		case sw.State == "done":
			printStatus(sw)
			return nil
		case sw.State == "failed":
			printStatus(sw)
			return fmt.Errorf("sweep %s failed: %s", id, sw.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s (state %s, %d/%d durable)",
				timeout, id, sw.State, sw.Completed, sw.Jobs)
		}
		// Progress resets the backoff; quiet periods double it up to the cap.
		if sw.State != last.State || sw.Completed != last.Completed || sw.Attempts != last.Attempts {
			pause = pollMin
		} else if pause *= 2; pause > pollMax {
			pause = pollMax
		}
		last = sw
		if retryAfter > pause {
			pause = retryAfter
		}
		time.Sleep(pause)
	}
}

// fetchForPoll is fetch plus the service's explicit pacing: a 429/503
// with Retry-After is not an error while polling, it is the service
// telling us when to come back.
func fetchForPoll(base, id string) (sweepStatus, time.Duration, error) {
	resp, err := http.Get(base + "/sweeps/" + id)
	if err != nil {
		return sweepStatus{}, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return sweepStatus{}, 0, err
	}
	var retryAfter time.Duration
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return sweepStatus{}, retryAfter, nil // back-pressured, not failed
	}
	if resp.StatusCode != http.StatusOK {
		return sweepStatus{}, 0, fmt.Errorf("%s/sweeps/%s: %s: %s", base, id, resp.Status, strings.TrimSpace(string(body)))
	}
	var sw sweepStatus
	if err := json.Unmarshal(body, &sw); err != nil {
		return sweepStatus{}, 0, err
	}
	return sw, retryAfter, nil
}

// event mirrors the service's NDJSON event lines; only the fields
// sweepctl reads are declared. Seq is a pointer: journaled events carry
// one, ephemeral lifecycle events do not.
type event struct {
	Seq         *int   `json:"seq"`
	Event       string `json:"event"`
	Sweep       string `json:"sweep"`
	Jobs        int    `json:"jobs"`
	Header      string `json:"header"`
	Job         int    `json:"job"`
	Fingerprint string `json:"fingerprint"`
	Row         string `json:"row"`
	Rows        int    `json:"rows"`
	State       string `json:"state"`
	Error       string `json:"error"`
	Attempt     int    `json:"attempt"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "interrupted"
}

// streamEvents consumes GET /sweeps/{id}/events until onEvent returns
// stop, the deadline passes, or the stream ends. Dropped connections
// reconnect with Last-Event-ID set to the last journaled seq seen, so a
// resumed stream never re-delivers rows already handled.
func streamEvents(base, id string, after int, deadline time.Time, onEvent func(ev event, raw string) bool) error {
	lastSeq := after
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			base+"/sweeps/"+id+"/events", nil)
		if err != nil {
			cancel()
			return err
		}
		if lastSeq >= 0 {
			req.Header.Set("Last-Event-ID", strconv.Itoa(lastSeq))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			if attempt == 0 || time.Now().After(deadline) {
				return err
			}
			time.Sleep(pollMin << min(attempt, 5))
			continue
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			cancel()
			return fmt.Errorf("events: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		stopped := false
		for sc.Scan() {
			raw := sc.Text()
			var ev event
			if err := json.Unmarshal([]byte(raw), &ev); err != nil {
				continue // skip torn/foreign lines rather than aborting the tail
			}
			if ev.Seq != nil {
				lastSeq = *ev.Seq
			}
			if onEvent(ev, raw) {
				stopped = true
				break
			}
		}
		scanErr := sc.Err()
		resp.Body.Close()
		cancel()
		if stopped {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for events of %s", id)
		}
		if scanErr == nil {
			// Clean EOF without a terminal event: server closed the stream
			// (e.g. drain). Treat as done-from-our-side.
			return nil
		}
		time.Sleep(pollMin << min(attempt, 5))
	}
}

// tail streams a sweep's events to stdout. Raw mode prints the NDJSON
// lines verbatim and exits at the terminal state event. With -csv the
// journaled events are reassembled into the report: the header and row
// events of the finishing attempt printed as CSV — byte-identical to
// `sweepctl report` for a done sweep (the CI gate asserts it).
func tail(base string, args []string, timeout time.Duration) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	after := fs.Int("after", -1, "skip journaled events with seq <= this")
	csv := fs.Bool("csv", false, "reassemble the event stream into the report CSV on stdout")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sweepctl tail [-after N] [-csv] <id>")
	}
	id := fs.Arg(0)
	deadline := time.Now().Add(timeout)

	if !*csv {
		var failed string
		err := streamEvents(base, id, *after, deadline, func(ev event, raw string) bool {
			fmt.Println(raw)
			if ev.Event == "state" && terminal(ev.State) {
				if ev.State == "failed" {
					failed = ev.Error
				}
				return true
			}
			return false
		})
		if err == nil && failed != "" {
			return fmt.Errorf("sweep %s failed: %s", id, failed)
		}
		return err
	}

	// CSV mode accumulates one attempt's journal and flushes it at
	// sweep_done: a mid-run retry resets the buffer (the journal was
	// truncated server-side too), so stdout only ever carries the rows of
	// the attempt that actually finished.
	var lines []string
	done := false
	err := streamEvents(base, id, -1, deadline, func(ev event, raw string) bool {
		switch ev.Event {
		case "sweep_started":
			lines = append(lines[:0], ev.Header)
		case "row":
			lines = append(lines, ev.Row)
		case "sweep_done":
			done = true
			return true
		case "state":
			if terminal(ev.State) {
				return true
			}
		}
		return false
	})
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("sweep %s ended without completing (no sweep_done event); no CSV to emit", id)
	}
	for _, ln := range lines {
		fmt.Println(ln)
	}
	return nil
}

func report(base string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: sweepctl report <id>")
	}
	resp, err := http.Get(base + "/sweeps/" + args[0] + "/report")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("report: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	_, err = os.Stdout.Write(body)
	return err
}

func list(base string) error {
	var sweeps []sweepStatus
	if err := getJSON(base+"/sweeps", &sweeps); err != nil {
		return err
	}
	for _, sw := range sweeps {
		printStatus(sw)
	}
	return nil
}
