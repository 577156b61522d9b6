// Package kernel demonstrates the sorted-emission idiom — collect, sort,
// then print in slice order — and order-insensitive aggregation.
package kernel

import (
	"fmt"
	"sort"
)

// Dump prints a map deterministically.
func Dump(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

// Total prints a sum over the map: addition commutes, so the printed value
// does not depend on iteration order.
func Total(m map[string]int) {
	total := 0
	for _, v := range m {
		total += v
	}
	fmt.Println(total)
}
