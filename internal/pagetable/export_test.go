package pagetable

import "unsafe"

// allocBytes is what the runtime hands out for an n-byte object: n rounded
// up to its size class, read back from the capacity that append grows a
// slice of that size to. A pointerful object above 512 B also carries the
// runtime's 8-byte type header, which its size class must hold too.
func allocBytes(n uintptr, pointers bool) uint64 {
	if !pointers {
		return uint64(cap(append([]byte(nil), make([]byte, n)...)))
	}
	c := uint64(cap(append([]*byte(nil), make([]*byte, (n+7)/8)...))) * 8
	if n > 512 {
		c += 8
	}
	return c
}

// footprint sums what t's tables and pools cost the heap, every table and
// slice priced at its allocation's size, and counts the leaf tables in
// use.
func (t *Table) footprint() (bytes uint64, leafTables int) {
	slice := func(n int, elem uintptr, pointers bool) uint64 {
		if n == 0 {
			return 0
		}
		return allocBytes(uintptr(n)*elem, pointers)
	}
	const ptr = unsafe.Sizeof(uintptr(0))
	pageBytes := allocBytes(unsafe.Sizeof(page{}), false)
	var walk func(d *dir)
	walk = func(d *dir) {
		bytes += allocBytes(unsafe.Sizeof(dir{}), true) +
			slice(cap(d.dirs), ptr, true) +
			slice(cap(d.pages), ptr, true) +
			slice(cap(d.used), 2, false)
		for _, c := range d.dirs {
			if c != nil {
				walk(c)
			}
		}
		for _, p := range d.pages {
			if p != nil {
				bytes += pageBytes
				leafTables++
			}
		}
	}
	walk(t.root)
	for _, pool := range [][]*dir{t.poolDirs, t.poolPDs} {
		bytes += slice(cap(pool), ptr, true)
		for _, d := range pool {
			walk(d)
		}
	}
	bytes += slice(cap(t.poolPages), ptr, true) + uint64(len(t.poolPages))*pageBytes
	return bytes, leafTables
}
