// Package xrand is the one place math/rand may be imported: the layering
// table exempts it from the math/rand ban.
package xrand

import "math/rand"

// New returns a seeded deterministic source.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
