package regions

import (
	"fmt"
	"strings"
)

// Map is a fragmenting interval map: a sorted sequence of disjoint,
// non-empty intervals, each carrying a value of type V.
//
// Map is the mechanism behind the paper's partially-overlapping array
// sections (§VII): whenever an operation addresses an interval whose
// boundaries fall inside an existing entry, the entry is split and its value
// duplicated with the clone function, so per-interval state (dependency
// counters, flags, reader lists) follows fragmentation with no external
// fix-ups.
//
// Map is not safe for concurrent use; the dependency engine serializes all
// accesses under its own lock.
type Map[V any] struct {
	entries []entry[V]
	clone   func(V) V
}

type entry[V any] struct {
	iv Interval
	v  V
}

// NewMap returns an empty map. clone duplicates a value when an entry is
// split; nil means plain value copy (correct for value types without
// reference fields).
func NewMap[V any](clone func(V) V) *Map[V] {
	return &Map[V]{clone: clone}
}

func (m *Map[V]) dup(v V) V {
	if m.clone == nil {
		return v
	}
	return m.clone(v)
}

// Reset empties the map while keeping the entries slice's capacity, so a
// pooled map's next life pays no allocation until it outgrows its previous
// one. Entries are zeroed first: pooled values may hold pointers (fragment
// boxes, reader lists) that must not stay reachable from the free list.
func (m *Map[V]) Reset() {
	clear(m.entries)
	m.entries = m.entries[:0]
}

// Count returns the number of entries.
func (m *Map[V]) Count() int { return len(m.entries) }

// Empty reports whether the map has no entries.
func (m *Map[V]) Empty() bool { return len(m.entries) == 0 }

// CoveredLen returns the total number of elements covered by entries.
func (m *Map[V]) CoveredLen() int64 {
	var n int64
	for _, e := range m.entries {
		n += e.iv.Len()
	}
	return n
}

// search returns the index of the first entry with Hi > p: the entry
// containing p, or the first entry after it. It is the map's only search;
// every operation below makes exactly one and then walks forward.
func (m *Map[V]) search(p int64) int {
	lo, hi := 0, len(m.entries)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if m.entries[h].iv.Hi > p {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return lo
}

// insertAt inserts e at index i, shifting later entries up.
func (m *Map[V]) insertAt(i int, e entry[V]) {
	m.entries = append(m.entries, entry[V]{})
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = e
}

// split cuts entry i at p, which must lie strictly inside it, into [lo,p)
// at i and [p,hi) at i+1. The upper half's value is the one clone.
func (m *Map[V]) split(i int, p int64) {
	e := &m.entries[i]
	upper := entry[V]{iv: Interval{Lo: p, Hi: e.iv.Hi}, v: m.dup(e.v)}
	e.iv.Hi = p
	m.insertAt(i+1, upper)
}

// start searches for lo and splits the entry straddling it, returning the
// index of the first entry that ends after lo and does not begin before it.
func (m *Map[V]) start(lo int64) int {
	i := m.search(lo)
	if i < len(m.entries) && m.entries[i].iv.Lo < lo {
		m.split(i, lo)
		i++
	}
	return i
}

// VisitRange visits every entry overlapping iv in ascending order, after
// splitting boundary entries so that each visited entry lies fully inside
// iv. Gaps are skipped. f receives the entry interval and a pointer to its
// value; the value may be mutated in place. f must not otherwise mutate the
// map, except that it may Reset it (a callback can recycle the map's
// owner): the walk re-reads the length on every step and stops.
//
// The walk costs one search: it splits the first entry at iv.Lo, then cuts
// the last entry at iv.Hi when it reaches it.
func (m *Map[V]) VisitRange(iv Interval, f func(Interval, *V)) {
	if iv.Empty() {
		return
	}
	for i := m.start(iv.Lo); i < len(m.entries); i++ {
		if m.entries[i].iv.Lo >= iv.Hi {
			break
		}
		if m.entries[i].iv.Hi > iv.Hi {
			m.split(i, iv.Hi)
		}
		e := &m.entries[i]
		f(e.iv, &e.v)
	}
}

// VisitRangeGaps is like VisitRange but also reports the gaps (sub-intervals
// of iv not covered by any entry) through gap. Entries and gaps are reported
// in ascending order, interleaved. Either callback may be nil.
func (m *Map[V]) VisitRangeGaps(iv Interval, f func(Interval, *V), gap func(Interval)) {
	if iv.Empty() {
		return
	}
	pos := iv.Lo
	for i := m.start(iv.Lo); i < len(m.entries); i++ {
		if m.entries[i].iv.Lo >= iv.Hi {
			break
		}
		if m.entries[i].iv.Hi > iv.Hi {
			m.split(i, iv.Hi)
		}
		e := &m.entries[i]
		if e.iv.Lo > pos && gap != nil {
			gap(Interval{Lo: pos, Hi: e.iv.Lo})
		}
		pos = e.iv.Hi
		if f != nil {
			f(e.iv, &e.v)
		}
	}
	if pos < iv.Hi && gap != nil {
		gap(Interval{Lo: pos, Hi: iv.Hi})
	}
}

// VisitClipped reports every entry overlapping iv in ascending order, its
// interval clipped to iv, without splitting anything: f only reads, so the
// map is left exactly as it was. Gaps are skipped.
func (m *Map[V]) VisitClipped(iv Interval, f func(Interval, V)) {
	if iv.Empty() {
		return
	}
	for i := m.search(iv.Lo); i < len(m.entries); i++ {
		e := &m.entries[i]
		if e.iv.Lo >= iv.Hi {
			break
		}
		f(e.iv.Intersect(iv), e.v)
	}
}

// Materialize ensures iv is fully covered by entries, creating entries with
// value init() for every gap, then visits every entry inside iv in order.
// Gaps are filled in the same walk that visits the entries, so the call
// costs one search. f may be nil; like VisitRange's, it may Reset the map,
// which ends the walk.
func (m *Map[V]) Materialize(iv Interval, init func(Interval) V, f func(Interval, *V)) {
	if iv.Empty() {
		return
	}
	pos := iv.Lo
	for i := m.start(iv.Lo); pos < iv.Hi; i++ {
		if i == len(m.entries) || m.entries[i].iv.Lo > pos {
			g := Interval{Lo: pos, Hi: iv.Hi}
			if i < len(m.entries) && m.entries[i].iv.Lo < g.Hi {
				g.Hi = m.entries[i].iv.Lo
			}
			m.insertAt(i, entry[V]{iv: g, v: init(g)})
		} else if m.entries[i].iv.Hi > iv.Hi {
			m.split(i, iv.Hi)
		}
		e := &m.entries[i]
		pos = e.iv.Hi
		if f != nil {
			f(e.iv, &e.v)
			if i >= len(m.entries) {
				return // f recycled the map
			}
		}
	}
}

// cut removes everything inside iv and returns the index where an entry
// starting at iv.Lo belongs. Entries straddling a boundary are trimmed
// rather than split, so no value is cloned unless iv lies strictly inside
// one entry, whose upper remainder then takes the one clone.
func (m *Map[V]) cut(iv Interval) int {
	i := m.search(iv.Lo)
	if i < len(m.entries) && m.entries[i].iv.Lo < iv.Lo {
		e := &m.entries[i]
		if e.iv.Hi > iv.Hi {
			upper := entry[V]{iv: Interval{Lo: iv.Hi, Hi: e.iv.Hi}, v: m.dup(e.v)}
			e.iv.Hi = iv.Lo
			m.insertAt(i+1, upper)
			return i + 1
		}
		e.iv.Hi = iv.Lo
		i++
	}
	j := i
	for j < len(m.entries) && m.entries[j].iv.Hi <= iv.Hi {
		j++
	}
	if j < len(m.entries) && m.entries[j].iv.Lo < iv.Hi {
		m.entries[j].iv.Lo = iv.Hi
	}
	if j > i {
		n := copy(m.entries[i:], m.entries[j:])
		clear(m.entries[i+n:])
		m.entries = m.entries[:i+n]
	}
	return i
}

// Set assigns value v over iv, overwriting (and fragmenting) whatever was
// there before.
func (m *Map[V]) Set(iv Interval, v V) {
	if iv.Empty() {
		return
	}
	m.insertAt(m.cut(iv), entry[V]{iv: iv, v: v})
}

// Remove deletes all entries (or entry parts) inside iv.
func (m *Map[V]) Remove(iv Interval) {
	if iv.Empty() {
		return
	}
	m.cut(iv)
}

// MergeRange coalesces runs of adjacent entries that touch (no gap between
// them) and whose values eq reports equal. The scan covers every entry
// overlapping iv plus one neighbor on each side, so a caller that just
// normalized values over iv also merges with bordering entries.
//
// MergeRange keeps fragmenting maps compact: long-lived maps whose entries
// converge to equal values after piece-wise updates (drained dependency
// domains, fully released fragments) would otherwise accumulate one entry
// per historical split and make every later split pay a linear shift.
func (m *Map[V]) MergeRange(iv Interval, eq func(a, b V) bool) {
	if iv.Empty() || len(m.entries) < 2 {
		return
	}
	first := m.search(iv.Lo)
	if first > 0 {
		first--
	}
	last := first
	for last < len(m.entries) && m.entries[last].iv.Lo < iv.Hi {
		last++
	}
	if last < len(m.entries) {
		last++ // right neighbor
	}
	if last-first < 2 {
		return
	}
	w := first
	for r := first + 1; r < last; r++ {
		e := &m.entries[w]
		n := m.entries[r]
		if e.iv.Hi == n.iv.Lo && eq(e.v, n.v) {
			e.iv.Hi = n.iv.Hi
			continue
		}
		w++
		m.entries[w] = n
	}
	if removed := last - 1 - w; removed > 0 {
		n := copy(m.entries[w+1:], m.entries[last:])
		clear(m.entries[w+1+n:])
		m.entries = m.entries[:w+1+n]
	}
}

// Get returns the value pointer for the entry containing point p, or nil.
func (m *Map[V]) Get(p int64) *V {
	i := m.search(p)
	if i < len(m.entries) && m.entries[i].iv.Lo <= p {
		return &m.entries[i].v
	}
	return nil
}

// Visit calls f for every entry in ascending order.
func (m *Map[V]) Visit(f func(Interval, *V)) {
	for i := range m.entries {
		f(m.entries[i].iv, &m.entries[i].v)
	}
}

// Covered reports whether iv is fully covered by entries. It never splits.
func (m *Map[V]) Covered(iv Interval) bool {
	pos := iv.Lo
	for i := m.search(iv.Lo); i < len(m.entries) && pos < iv.Hi; i++ {
		if m.entries[i].iv.Lo > pos {
			return false
		}
		pos = m.entries[i].iv.Hi
	}
	return pos >= iv.Hi
}

// Validate checks the map invariants (sorted, disjoint, non-empty) and
// returns an error describing the first violation.
func (m *Map[V]) Validate() error {
	for i, e := range m.entries {
		if e.iv.Empty() {
			return fmt.Errorf("regions: map entry %d empty: %v", i, e.iv)
		}
		if i > 0 && m.entries[i-1].iv.Hi > e.iv.Lo {
			return fmt.Errorf("regions: map entries %d,%d overlap: %v %v", i-1, i, m.entries[i-1].iv, e.iv)
		}
	}
	return nil
}

// String renders the map for debugging.
func (m *Map[V]) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range m.entries {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v=%v", e.iv, e.v)
	}
	b.WriteByte('}')
	return b.String()
}
