package cache_test

import (
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/itlb"
	"repro/internal/memory"
)

// TestLineSizes pins the line layouts of the modelled caches: a key, a
// value and a recency stamp, with no padding. The icache and the
// hierarchy levels hold struct{} lines, the ITLB holds itlb.Entry lines
// and the ATLB holds descriptor pointers.
func TestLineSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"struct{}", unsafe.Sizeof(cache.Line[struct{}]{}), 16},
		{"itlb.Entry", unsafe.Sizeof(cache.Line[itlb.Entry]{}), 32},
		{"*memory.Descriptor", unsafe.Sizeof(cache.Line[*memory.Descriptor]{}), 24},
	} {
		if c.got != c.want {
			t.Errorf("Line[%s] is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
