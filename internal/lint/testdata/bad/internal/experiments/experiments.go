// Package experiments seeds the interprocedural detertaint violations —
// an ambient timestamp crossing two call hops into a sim.Result field
// (read outside the simulated world, so the layering fence cannot see it), an
// environment read relayed into a report cell through a helper's
// parameter, and raw map-iteration order reaching the report — plus a
// discarded error from the store's durable Seal. It also still provides
// the Quick preset that bad/internal/service imports upward (layering).
package experiments

import (
	"os"

	"bad/internal/runner"
	"bad/internal/sim"
	"bad/internal/stats"
	"bad/internal/store"
)

// Quick mirrors the real package's scale preset.
const Quick = 1

// Publish copies a freshly-read host timestamp into the result: the
// source is two calls away (StampWrapper -> hostStamp -> time.Now), so
// only the call-graph taint analysis can connect them (detertaint).
func Publish(res *sim.Result) {
	res.Stamp = runner.StampWrapper()
}

// emit relays a value into a report cell; detertaint's parameter-sink
// summary must carry the sink back through this hop.
func emit(t *stats.Table, v string) {
	t.AddRow(v)
}

// Report leaks the host environment into a report cell via emit
// (detertaint, parameter-sink chain).
func Report(t *stats.Table) {
	emit(t, os.Getenv("TRIDENT_HOST"))
}

// Dump emits rows in map-iteration order: order taint straight into a
// report cell (detertaint).
func Dump(t *stats.Table, m map[string]int) {
	for k := range m {
		t.AddRow(k)
	}
}

// Archive discards the error from the store's durable rename (errdrop,
// the caller-side shape: dropping a durability-path error one layer up).
func Archive(path string) {
	store.Seal(path)
}
