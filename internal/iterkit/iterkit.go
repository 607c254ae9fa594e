// Package iterkit provides the internal-key iterator contract and the
// heap-based merge iterator shared by the host Main-LSM and the in-device
// Dev-LSM.
package iterkit

import (
	"bytes"

	"kvaccel/internal/memtable"
)

// Iterator is a cursor over internal-key records (user key ascending,
// sequence descending within a key).
type Iterator interface {
	SeekToFirst()
	Seek(key []byte)
	Next()
	Valid() bool
	Entry() memtable.Entry
}

// Compare orders internal keys: user key ascending, seq descending.
func Compare(a, b memtable.Entry) int {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	switch {
	case a.Seq > b.Seq:
		return -1
	case a.Seq < b.Seq:
		return 1
	}
	return 0
}

// Merge merges children in internal-key order. Ties between children
// break toward the lower child index, so callers should order children
// newest-source-first.
type Merge struct {
	children []Iterator
	h        mergeHeap
}

// NewMerge returns a merge iterator over children.
func NewMerge(children []Iterator) *Merge { return &Merge{children: children} }

type mergeItem struct {
	it  Iterator
	e   memtable.Entry
	idx int
}

// mergeHeap is a binary min-heap of the children's current records. The
// merge only ever replaces or removes the top, so it needs only the
// downward sift.
type mergeHeap []mergeItem

func (h mergeHeap) less(i, j int) bool {
	if c := Compare(h[i].e, h[j].e); c != 0 {
		return c < 0
	}
	return h[i].idx < h[j].idx
}

// down sifts item i down to its place.
func (h mergeHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && h.less(j+1, j) {
			j++
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (m *Merge) rebuild() {
	m.h = m.h[:0]
	for i, it := range m.children {
		if it.Valid() {
			m.h = append(m.h, mergeItem{it: it, e: it.Entry(), idx: i})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.h.down(i)
	}
}

// SeekToFirst positions every child at its start.
func (m *Merge) SeekToFirst() {
	for _, it := range m.children {
		it.SeekToFirst()
	}
	m.rebuild()
}

// Seek positions every child at the first record >= key.
func (m *Merge) Seek(key []byte) {
	for _, it := range m.children {
		it.Seek(key)
	}
	m.rebuild()
}

// Valid reports whether a current record exists.
func (m *Merge) Valid() bool { return len(m.h) > 0 }

// Entry returns the smallest current record.
func (m *Merge) Entry() memtable.Entry { return m.h[0].e }

// Top returns the child that owns the current record: it is positioned
// on that record until the next Next, Seek or SeekToFirst.
func (m *Merge) Top() Iterator { return m.h[0].it }

// Next advances the child owning the current record.
func (m *Merge) Next() {
	top := &m.h[0]
	top.it.Next()
	if top.it.Valid() {
		top.e = top.it.Entry()
	} else {
		last := len(m.h) - 1
		m.h[0], m.h = m.h[last], m.h[:last]
	}
	m.h.down(0)
}
