package itlb

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/object"
)

// This file exposes the warm ITLB as plain data for the persistent image
// codec. Method fields are exported as indexes into the image's method
// table (assigned by the caller) so the on-disk form carries no pointers;
// the importer swaps the indexes back. Replacement state travels through
// cache.Export/Import — sparse, held lines only — so a loaded machine's
// first dispatch hits exactly where the snapshotted machine's would have.

// LineState is one exported (valid) ITLB line. Index is the set-major
// line position; Method indexes the caller's method table, -1 when the
// entry has no method (primitive entries).
type LineState struct {
	Index     uint32
	Key       uint64
	Stamp     uint64
	Primitive bool
	PrimID    object.PrimID
	Method    int32
}

// State is the ITLB's serialisable replacement state; its geometry is
// the machine's configuration, handed to ImportState.
type State struct {
	Clock      uint64
	CacheStats cache.Stats
	Stats      Stats
	Lines      []LineState
}

// ExportState flattens the buffer. methodID maps a method to its index in
// the image's method table; it must cover every method the buffer holds
// (the exporter pre-collects them via EachMethod).
func (t *ITLB) ExportState(methodID func(*object.Method) (int32, error)) (State, error) {
	clock, lines := t.c.Export()
	st := State{
		Clock:      clock,
		CacheStats: t.c.Stats,
		Stats:      t.Stats,
		Lines:      make([]LineState, len(lines)),
	}
	for i, ln := range lines {
		ls := LineState{
			Index:     ln.Index,
			Key:       ln.Key,
			Stamp:     ln.Stamp,
			Primitive: ln.Value.Primitive,
			PrimID:    ln.Value.PrimID,
			Method:    -1,
		}
		if ln.Value.Method != nil {
			id, err := methodID(ln.Value.Method)
			if err != nil {
				return State{}, err
			}
			ls.Method = id
		}
		st.Lines[i] = ls
	}
	return st, nil
}

// ImportState rebuilds a buffer of the given geometry from exported
// state. methodOf resolves a method-table index; it is never called for
// -1.
func ImportState(st State, cfg Config, methodOf func(int32) (*object.Method, error)) (*ITLB, error) {
	lines := make([]cache.LineState[Entry], len(st.Lines))
	for i, ls := range st.Lines {
		e := Entry{Primitive: ls.Primitive, PrimID: ls.PrimID}
		if ls.Method >= 0 {
			m, err := methodOf(ls.Method)
			if err != nil {
				return nil, fmt.Errorf("itlb: line %d: %w", i, err)
			}
			e.Method = m
		}
		lines[i] = cache.LineState[Entry]{Index: ls.Index, Key: ls.Key, Value: e, Stamp: ls.Stamp}
	}
	c, err := cache.Import(cfg.cacheConfig(), st.CacheStats, st.Clock, lines, nil)
	if err != nil {
		return nil, fmt.Errorf("itlb: %w", err)
	}
	return &ITLB{c: c, Stats: st.Stats}, nil
}

// EachMethod calls fn for every distinct method held by a line, in
// set-major line order. The image exporter uses it to ensure displaced
// methods still referenced by warm translations land in the method table.
func (t *ITLB) EachMethod(fn func(*object.Method)) {
	_, lines := t.c.Export()
	seen := make(map[*object.Method]bool)
	for _, ln := range lines {
		if ln.Value.Method != nil && !seen[ln.Value.Method] {
			seen[ln.Value.Method] = true
			fn(ln.Value.Method)
		}
	}
}
