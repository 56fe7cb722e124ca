package regions

import (
	"fmt"
	"testing"
)

// fuzzUniverse is the element range the fuzzed maps live in: small enough
// that a naive per-element model is cheap, large enough for many entries.
const fuzzUniverse = 64

// fuzzMaxOps bounds one input's operation sequence, so each execution stays
// cheap and the fuzzer spends its time on new shapes, not long replays.
const fuzzMaxOps = 64

// fuzzVal is a fuzzed map value: v is the payload the model tracks per
// element, id names the value instance so the fuzzer can see which entry
// came from which split.
type fuzzVal struct{ v, id int }

// FuzzRegionsMap decodes its input into a sequence of Map operations, four
// bytes each (kind, lo, hi, arg), and checks every step against a naive
// per-element model: the entries must stay sorted, disjoint and non-empty
// (Validate), hold exactly the model's values, and every visit must report
// exactly the model's entries and gaps, in order, inside the query. It
// also checks the cost promises the dependency engine relies on: the
// read-only operations (VisitClipped, Get, Covered) never change the entry
// count, and every split clones the value exactly once — no entry shares a
// value instance with another, and every clone made during an operation is
// still in the map when it returns.
func FuzzRegionsMap(f *testing.F) {
	f.Add([]byte{0, 0, 64, 1, 2, 10, 20, 3, 3, 5, 50, 0})
	f.Add([]byte{0, 10, 30, 7, 5, 0, 64, 2, 6, 0, 64, 0, 8, 0, 64, 0})
	f.Add([]byte{0, 0, 32, 1, 0, 32, 64, 1, 6, 0, 64, 0, 1, 16, 48, 0, 4, 0, 64, 9})
	f.Add([]byte{0, 0, 64, 4, 1, 20, 30, 0, 3, 10, 40, 0, 7, 25, 0, 0, 8, 15, 35, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var (
			nextID int
			clones []int // ids cloned during the current operation
			model  [fuzzUniverse]*int
		)
		m := NewMap[fuzzVal](func(x fuzzVal) fuzzVal {
			nextID++
			clones = append(clones, nextID)
			return fuzzVal{v: x.v, id: nextID}
		})
		fresh := func(v int) fuzzVal {
			nextID++
			return fuzzVal{v: v, id: nextID}
		}
		if len(ops) > 4*fuzzMaxOps {
			ops = ops[:4*fuzzMaxOps]
		}
		for step := 0; step+4 <= len(ops); step += 4 {
			kind, arg := ops[step]%9, int(ops[step+3])
			lo, hi := int64(ops[step+1])%(fuzzUniverse+1), int64(ops[step+2])%(fuzzUniverse+1)
			if lo > hi {
				lo, hi = hi, lo
			}
			iv := Iv(lo, hi)
			where := fmt.Sprintf("step %d: op %d over %v arg %d", step/4, kind, iv, arg)
			clones = clones[:0]
			before := m.Count()
			switch kind {
			case 0:
				m.Set(iv, fresh(arg))
				for p := lo; p < hi; p++ {
					model[p] = &arg
				}
			case 1:
				m.Remove(iv)
				for p := lo; p < hi; p++ {
					model[p] = nil
				}
			case 2:
				got := fuzzTile(m, iv, true, func(v *fuzzVal) { v.v += arg })
				fuzzCheckTile(t, where, &model, iv, got, false)
				fuzzAdd(&model, iv, arg)
			case 3:
				var got []Interval
				m.VisitClipped(iv, func(e Interval, v fuzzVal) {
					got = append(got, e)
					for p := e.Lo; p < e.Hi; p++ {
						if model[p] == nil || *model[p] != v.v {
							t.Fatalf("%s: VisitClipped reported %d at %d, model %v", where, v.v, p, model[p])
						}
					}
				})
				fuzzCheckTile(t, where, &model, iv, tiled{entries: got}, false)
			case 4:
				got := fuzzTile(m, iv, false, func(v *fuzzVal) { v.v += arg })
				fuzzCheckTile(t, where, &model, iv, got, true)
				fuzzAdd(&model, iv, arg)
			case 5:
				var got tiled
				m.Materialize(iv, func(g Interval) fuzzVal {
					got.gaps = append(got.gaps, g)
					return fresh(arg)
				}, func(e Interval, v *fuzzVal) { got.entries = append(got.entries, e) })
				for _, g := range got.gaps {
					if !iv.ContainsIv(g) {
						t.Fatalf("%s: Materialize filled %v outside the query", where, g)
					}
					for p := g.Lo; p < g.Hi; p++ {
						if model[p] != nil {
							t.Fatalf("%s: Materialize filled covered element %d", where, p)
						}
						model[p] = &arg
					}
				}
				got.gaps = nil // filled gaps are visited as entries too
				fuzzCheckTile(t, where, &model, iv, got, false)
			case 6:
				m.MergeRange(iv, func(a, b fuzzVal) bool { return a.v == b.v })
				if m.Count() > before {
					t.Fatalf("%s: MergeRange grew the map from %d to %d entries", where, before, m.Count())
				}
			case 7:
				v := m.Get(lo)
				if w := fuzzAt(&model, lo); (v == nil) != (w == nil) || v != nil && v.v != *w {
					t.Fatalf("%s: Get(%d) = %v, model %v", where, lo, v, w)
				}
			case 8:
				want := true
				for p := lo; p < hi; p++ {
					want = want && model[p] != nil
				}
				if got := m.Covered(iv); got != want {
					t.Fatalf("%s: Covered = %v, model %v", where, got, want)
				}
			}
			if (kind == 3 || kind == 7 || kind == 8 || iv.Empty()) && m.Count() != before {
				t.Fatalf("%s: entry count changed from %d to %d", where, before, m.Count())
			}
			if (kind == 3 || kind == 6 || kind == 7 || kind == 8) && len(clones) != 0 {
				t.Fatalf("%s: read-only or merging operation cloned %d values", where, len(clones))
			}
			fuzzCheckMap(t, where, m, &model, clones)
		}
	})
}

// fuzzAt returns the model's value pointer for p (nil when uncovered or p
// is outside the universe).
func fuzzAt(model *[fuzzUniverse]*int, p int64) *int {
	if p < 0 || p >= fuzzUniverse {
		return nil
	}
	return model[p]
}

// fuzzAdd adds d to every covered model element of iv, giving each its own
// cell so later per-element updates do not alias.
func fuzzAdd(model *[fuzzUniverse]*int, iv Interval, d int) {
	for p := iv.Lo; p < iv.Hi; p++ {
		if model[p] != nil {
			v := *model[p] + d
			model[p] = &v
		}
	}
}

// tiled is what one visit reported: its entry intervals, its gaps, and
// both interleaved, each in the order reported.
type tiled struct{ entries, gaps, all []Interval }

// fuzzTile runs VisitRange (plain) or VisitRangeGaps over iv, applying
// mut to every visited value.
func fuzzTile(m *Map[fuzzVal], iv Interval, plain bool, mut func(*fuzzVal)) tiled {
	var got tiled
	visit := func(e Interval, v *fuzzVal) {
		got.entries = append(got.entries, e)
		got.all = append(got.all, e)
		mut(v)
	}
	if plain {
		m.VisitRange(iv, visit)
	} else {
		m.VisitRangeGaps(iv, visit, func(g Interval) {
			got.gaps = append(got.gaps, g)
			got.all = append(got.all, g)
		})
	}
	return got
}

// fuzzCheckTile checks that a visit over iv reported exactly the model's
// covered runs as entries (possibly cut into several) and, when withGaps,
// exactly its uncovered runs as gaps, all inside iv and in ascending order.
func fuzzCheckTile(t *testing.T, where string, model *[fuzzUniverse]*int, iv Interval, got tiled, withGaps bool) {
	t.Helper()
	seen := make(map[int64]bool)
	check := func(list []Interval, covered bool, what string) {
		pos := iv.Lo
		for _, e := range list {
			if e.Empty() || e.Lo < pos || e.Hi > iv.Hi {
				t.Fatalf("%s: %s %v out of order or outside the query (reported %v)", where, what, e, list)
			}
			pos = e.Hi
			for p := e.Lo; p < e.Hi; p++ {
				if (model[p] != nil) != covered {
					t.Fatalf("%s: %s %v includes element %d, model covered=%v", where, what, e, p, model[p] != nil)
				}
				seen[p] = true
			}
		}
	}
	check(got.entries, true, "entry")
	if withGaps {
		check(got.gaps, false, "gap")
		for i := 1; i < len(got.all); i++ {
			if got.all[i].Lo != got.all[i-1].Hi {
				t.Fatalf("%s: entries and gaps do not tile the query in order: %v", where, got.all)
			}
		}
	}
	for p := iv.Lo; p < iv.Hi; p++ {
		if !seen[p] && (model[p] != nil || withGaps) {
			t.Fatalf("%s: element %d (covered=%v) not reported (entries %v gaps %v)", where, p, model[p] != nil, got.entries, got.gaps)
		}
	}
}

// fuzzCheckMap checks the map invariants, its contents against the model,
// and the clone accounting of the operation just applied.
func fuzzCheckMap(t *testing.T, where string, m *Map[fuzzVal], model *[fuzzUniverse]*int, clones []int) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("%s: %v: %v", where, err, m)
	}
	var got [fuzzUniverse]*int
	ids := make(map[int]bool)
	m.Visit(func(e Interval, v *fuzzVal) {
		if e.Lo < 0 || e.Hi > fuzzUniverse {
			t.Fatalf("%s: entry %v outside the universe", where, e)
		}
		if ids[v.id] {
			t.Fatalf("%s: value instance %d held by two entries (a split did not clone): %v", where, v.id, m)
		}
		ids[v.id] = true
		for p := e.Lo; p < e.Hi; p++ {
			got[p] = &v.v
		}
	})
	for p := range got {
		if (got[p] == nil) != (model[p] == nil) || got[p] != nil && *got[p] != *model[p] {
			t.Fatalf("%s: element %d holds %v, model %v: %v", where, p, fuzzPtr(got[p]), fuzzPtr(model[p]), m)
		}
	}
	for _, id := range clones {
		if !ids[id] {
			t.Fatalf("%s: clone %d was made but is not in the map (a split cloned more than once, or a clone was thrown away)", where, id)
		}
	}
}

func fuzzPtr(p *int) any {
	if p == nil {
		return "uncovered"
	}
	return *p
}
