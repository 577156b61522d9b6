// Package units defines the page sizes, buddy orders and address arithmetic
// shared by every layer of the simulator. All addresses are byte addresses
// represented as uint64; all sizes are in bytes.
//
// Terminology follows the paper and Linux:
//
//   - a "frame" is a 4KB physical page frame; frame numbers (PFNs) index them;
//   - a buddy "order" n describes a 2^n-frame chunk (order 0 = 4KB,
//     order 9 = 2MB, order 18 = 1GB);
//   - a "region" is a 1GB-aligned 1GB span of physical memory, the granularity
//     at which Trident's smart compaction keeps statistics.
package units

import "fmt"

// Page sizes supported by x86-64 processors.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30

	Page4K = 4 * KiB
	Page2M = 2 * MiB
	Page1G = 1 * GiB
)

// Buddy orders for each page size (measured in 4KB frames).
const (
	Order4K = 0
	Order2M = 9
	Order1G = 18

	// StockMaxOrder is the largest order tracked by the unmodified Linux
	// buddy allocator (MAX_ORDER-1 = 10, i.e. 4MB chunks).
	StockMaxOrder = 10

	// TridentMaxOrder is the largest order tracked once Trident extends the
	// buddy free lists up to 1GB chunks (§5.1.1).
	TridentMaxOrder = Order1G
)

// PageSize identifies one of the three x86-64 page sizes.
type PageSize int

// The three translation granularities of x86-64.
const (
	Size4K PageSize = iota
	Size2M
	Size1G
	NumPageSizes
)

// Bytes returns the size in bytes of s.
func (s PageSize) Bytes() uint64 {
	switch s {
	case Size4K:
		return Page4K
	case Size2M:
		return Page2M
	case Size1G:
		return Page1G
	}
	panic(fmt.Sprintf("units: invalid page size %d", int(s)))
}

// Order returns the buddy order of s.
func (s PageSize) Order() int {
	switch s {
	case Size4K:
		return Order4K
	case Size2M:
		return Order2M
	case Size1G:
		return Order1G
	}
	panic(fmt.Sprintf("units: invalid page size %d", int(s)))
}

// Frames returns the number of 4KB frames covered by one page of size s.
func (s PageSize) Frames() uint64 { return s.Bytes() / Page4K }

// Shift returns log2 of the size in bytes (12/21/30), so hot paths can
// replace division by Bytes() with a right shift.
func (s PageSize) Shift() uint {
	switch s {
	case Size4K:
		return 12
	case Size2M:
		return 21
	case Size1G:
		return 30
	}
	panic(fmt.Sprintf("units: invalid page size %d", int(s)))
}

// String implements fmt.Stringer.
func (s PageSize) String() string {
	switch s {
	case Size4K:
		return "4KB"
	case Size2M:
		return "2MB"
	case Size1G:
		return "1GB"
	}
	return fmt.Sprintf("PageSize(%d)", int(s))
}

// OrderSize returns the byte size of a buddy chunk of the given order.
func OrderSize(order int) uint64 { return Page4K << uint(order) }

// Align rounds addr down to the nearest multiple of align (a power of two).
func Align(addr, align uint64) uint64 { return addr &^ (align - 1) }

// AlignUp rounds addr up to the nearest multiple of align (a power of two).
func AlignUp(addr, align uint64) uint64 { return (addr + align - 1) &^ (align - 1) }

// IsAligned reports whether addr is a multiple of align (a power of two).
func IsAligned(addr, align uint64) bool { return addr&(align-1) == 0 }

// FrameAddr returns the physical address of frame pfn.
func FrameAddr(pfn uint64) uint64 { return pfn * Page4K }

// RegionOfFrame returns the 1GB region index containing frame pfn.
func RegionOfFrame(pfn uint64) uint64 { return pfn / (Page1G / Page4K) }

// FramesPerRegion is the number of 4KB frames in a 1GB region.
const FramesPerRegion = Page1G / Page4K

// HumanBytes renders n bytes with a binary-unit suffix, e.g. "1.5GB".
func HumanBytes(n uint64) string {
	switch {
	case n >= GiB:
		return trimZero(fmt.Sprintf("%.2f", float64(n)/GiB)) + "GB"
	case n >= MiB:
		return trimZero(fmt.Sprintf("%.2f", float64(n)/MiB)) + "MB"
	case n >= KiB:
		return trimZero(fmt.Sprintf("%.2f", float64(n)/KiB)) + "KB"
	}
	return fmt.Sprintf("%dB", n)
}

func trimZero(s string) string {
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}
