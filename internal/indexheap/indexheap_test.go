package indexheap

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// build returns a heap holding id i at prios[i] for every i, bulk built.
func build(prios []float64) *Heap {
	h := new(Heap)
	h.Reset(len(prios))
	for id, p := range prios {
		h.PushUnordered(id, p)
	}
	h.Heapify()
	return h
}

// item is one (priority, id) pair of the naive reference.
type item struct {
	prio float64
	id   int
}

// sortedItems sorts by the heap's documented total order: float priority,
// then id. Float comparison treats −0 and +0 as equal, as the heap must.
func sortedItems(items []item) []item {
	out := slices.Clone(items)
	sort.Slice(out, func(a, b int) bool {
		if out[a].prio != out[b].prio {
			return out[a].prio < out[b].prio
		}
		return out[a].id < out[b].id
	})
	return out
}

// samePrio compares priorities bit for bit, except that the heap returns a
// pushed −0 as +0.
func samePrio(got, want float64) bool {
	if want == 0 {
		want = 0 // fold −0 onto +0
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// drain pops h empty and fails unless the sequence equals want.
func drain(t *testing.T, h *Heap, want []item) {
	t.Helper()
	for i, w := range want {
		id, p := h.Pop()
		if id != w.id || !samePrio(p, w.prio) {
			t.Fatalf("pop %d = (%d, %g), want (%d, %g)", i, id, p, w.id, w.prio)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", h.Len())
	}
}

func TestPushPopOrdered(t *testing.T) {
	h := build([]float64{3, 1, 4, 1.5, 0.5})
	if h.Len() != 5 {
		t.Fatalf("Len = %d, want 5", h.Len())
	}
	for _, want := range []int{4, 1, 3, 0, 2} {
		if id, _ := h.Pop(); id != want {
			t.Fatalf("Pop = %d, want %d", id, want)
		}
	}
	if h.Len() != 0 {
		t.Errorf("Len after drain = %d", h.Len())
	}
}

func TestUpdateDecreaseKey(t *testing.T) {
	// A negative AddIfPresent is a decrease-key, a positive one an
	// increase-key.
	h := build([]float64{10, 20, 30})
	h.AddIfPresent(2, -29)
	h.AddIfPresent(0, 90)
	drain(t, h, []item{{1, 2}, {20, 1}, {100, 0}})
}

func TestAddDelta(t *testing.T) {
	h := build([]float64{5, 6})
	h.AddIfPresent(1, -3)
	drain(t, h, []item{{3, 1}, {5, 0}})
}

func TestRemove(t *testing.T) {
	// Pop removes its id: the id is absent afterwards, so AddIfPresent
	// leaves the remaining order alone.
	h := build([]float64{0, 1, 2, 3})
	if id, _ := h.Pop(); id != 0 {
		t.Fatalf("Pop = %d, want 0", id)
	}
	if h.AddIfPresent(0, -10) {
		t.Error("AddIfPresent of a popped id = true")
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d, want 3", h.Len())
	}
	drain(t, h, []item{{1, 1}, {2, 2}, {3, 3}})
}

func TestContainsAndPriority(t *testing.T) {
	var h Heap
	h.Reset(2)
	h.PushUnordered(1, 7)
	h.Heapify()
	if !h.AddIfPresent(1, 0) || h.AddIfPresent(0, 0) {
		t.Error("membership wrong")
	}
	if id, p := h.Pop(); id != 1 || p != 7 {
		t.Errorf("Pop = (%d, %g), want (1, 7)", id, p)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	var h Heap
	h.Reset(2)
	mustPanic("Pop empty", func() { h.Pop() })
	h.PushUnordered(0, 1)
	mustPanic("double Push", func() { h.PushUnordered(0, 2) })
}

func TestPropertyHeapSort(t *testing.T) {
	// Bulk building random priorities and draining must yield sorted order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prios := make([]float64, 1+rng.Intn(200))
		for i := range prios {
			prios[i] = rng.NormFloat64()
		}
		h := build(prios)
		var got []float64
		for h.Len() > 0 {
			_, p := h.Pop()
			got = append(got, p)
		}
		return len(got) == len(prios) && sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// model is the naive reference: a map of live priorities whose minimum is
// found by a full scan.
type model map[int]float64

func (m model) min() item {
	best := item{id: -1}
	for id, p := range m {
		if best.id < 0 || p < best.prio || (p == best.prio && id < best.id) {
			best = item{p, id}
		}
	}
	return best
}

// popMatches pops h and m once each and reports whether they agree.
func (m model) popMatches(h *Heap) bool {
	want := m.min()
	id, p := h.Pop()
	delete(m, want.id)
	return id == want.id && samePrio(p, want.prio)
}

func TestPropertyRandomOps(t *testing.T) {
	// A random interleaving of bulk pushes, decrements, increments and pops
	// keeps the heap consistent with the naive model.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		var h Heap
		h.Reset(n)
		m := model{}
		for step := 0; step < 500; step++ {
			id := rng.Intn(n)
			switch rng.Intn(4) {
			case 0: // push a batch of absent ids, then restore order
				for k := 0; k < 1+rng.Intn(4); k++ {
					if _, ok := m[id]; !ok {
						p := float64(rng.Intn(16))
						m[id] = p
						h.PushUnordered(id, p)
					}
					id = rng.Intn(n)
				}
				h.Heapify()
			case 1, 2: // add a delta of either sign, present or not
				d := float64(rng.Intn(9) - 5)
				_, ok := m[id]
				if ok {
					m[id] += d
				}
				if h.AddIfPresent(id, d) != ok {
					return false
				}
			case 3:
				if len(m) > 0 && !m.popMatches(&h) {
					return false
				}
			}
			if h.Len() != len(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestResetReuse(t *testing.T) {
	var h Heap
	h.Reset(4)
	h.PushUnordered(0, 3)
	h.PushUnordered(3, 1)
	h.Heapify()
	// Reset to a larger capacity: old members must be gone, new ids usable.
	h.Reset(8)
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", h.Len())
	}
	for id := 0; id < 8; id++ {
		if h.AddIfPresent(id, 1) {
			t.Errorf("id %d survived Reset", id)
		}
	}
	h.PushUnordered(7, 2)
	h.PushUnordered(3, 1)
	h.PushUnordered(0, 5)
	h.Heapify()
	if id, p := h.Pop(); id != 3 || p != 1 {
		t.Errorf("Pop = (%d,%g), want (3,1)", id, p)
	}
	// Shrink: capacity stays, semantics follow the new bound.
	h.Reset(2)
	h.PushUnordered(1, 9)
	h.Heapify()
	if id, _ := h.Pop(); id != 1 {
		t.Errorf("Pop after shrink = %d, want 1", id)
	}
}

func TestBulkBuildMatchesOrderedPushes(t *testing.T) {
	// PushUnordered+Heapify must drain in (priority, id) order no matter the
	// push order — the peeler's determinism contract.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		items := make([]item, n)
		for i := range items {
			items[i] = item{float64(rng.Intn(8)), i} // coarse: force ties
		}
		var h Heap
		h.Reset(n)
		for _, k := range rng.Perm(n) {
			h.PushUnordered(items[k].id, items[k].prio)
		}
		h.Heapify()
		for _, w := range sortedItems(items) {
			if id, p := h.Pop(); id != w.id || p != w.prio {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAddIfPresent(t *testing.T) {
	var h Heap
	h.Reset(3)
	h.PushUnordered(0, 5)
	h.PushUnordered(1, 6)
	h.Heapify()
	if !h.AddIfPresent(1, -4) {
		t.Fatal("AddIfPresent(queued id) = false")
	}
	if h.AddIfPresent(2, 1) {
		t.Fatal("AddIfPresent(absent id) = true")
	}
	drain(t, &h, []item{{2, 1}, {5, 0}})
}

func TestZeroValueReset(t *testing.T) {
	var h Heap
	h.Reset(3)
	h.PushUnordered(2, 1.5)
	h.Heapify()
	if id, p := h.Pop(); id != 2 || p != 1.5 {
		t.Errorf("Pop = (%d,%g), want (2,1.5)", id, p)
	}
}

// TestPopOrderMatchesSort pins the pop sequence to a sort by (float64
// priority, id) on the float values whose bit patterns make an integer key
// encoding easy to get wrong.
func TestPopOrderMatchesSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	cases := map[string][]float64{
		"negatives":  {-1, -0.5, -3, 2, -1e300, 1e-300, -2.5, 0.25},
		"zeros":      {0, negZero, 0, negZero, -sub, sub, negZero, 0},
		"subnormals": {sub, 2 * sub, -sub, -3 * sub, math.Float64frombits(0x000fffffffffffff), 0, -1, -math.Float64frombits(0x000fffffffffffff)},
		"infinities": {math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 0, math.Inf(1), math.Inf(-1), 1},
		"ties":       {2, 2, 2, 1, 2, 1, 1, 2, 2, 2, 1, 2, 2, 2, 2, 1, 2, 2},
	}
	for name, prios := range cases {
		t.Run(name, func(t *testing.T) {
			items := make([]item, len(prios))
			for i, p := range prios {
				items[i] = item{p, i}
			}
			drain(t, build(prios), sortedItems(items))
		})
	}
	t.Run("add-runs", func(t *testing.T) {
		// Runs of 250 decrements alternate with runs of mixed-sign deltas,
		// driving keys across the sign boundary and back through zero. The
		// halves keep the float arithmetic exact, so prios stays the truth.
		rng := rand.New(rand.NewSource(7))
		const n = 200
		prios := make([]float64, n)
		for i := range prios {
			prios[i] = float64(rng.Intn(5) - 2)
		}
		h := build(prios)
		for step := 0; step < 5000; step++ {
			id := rng.Intn(n)
			d := float64(rng.Intn(5)-2) * 0.5
			if step%500 < 250 {
				d = -math.Abs(d)
			}
			prios[id] += d
			h.AddIfPresent(id, d)
		}
		items := make([]item, n)
		for i, p := range prios {
			items[i] = item{p, i}
		}
		drain(t, h, sortedItems(items))
	})
}

// FuzzHeapOrder drives the heap with a byte-coded operation sequence and
// checks every pop against the naive model. Each operation is two bytes:
// the first picks the op and an id, the second a small signed value.
func FuzzHeapOrder(f *testing.F) {
	f.Add([]byte{0, 3, 1, 5, 2, 250, 3, 0})
	f.Add([]byte{0, 0, 4, 0, 8, 128, 12, 1, 3, 0, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 64
		var h Heap
		h.Reset(n)
		m := model{}
		pending := false // PushUnordered since the last Heapify
		for len(ops) >= 2 {
			op, id, v := ops[0]&3, int(ops[0]>>2)%n, float64(int8(ops[1]))/4
			ops = ops[2:]
			if pending && op != 0 {
				h.Heapify()
				pending = false
			}
			switch op {
			case 0:
				if _, ok := m[id]; !ok {
					m[id] = v
					h.PushUnordered(id, v)
					pending = true
				}
			case 1, 2:
				_, ok := m[id]
				if ok {
					m[id] += v
				}
				if h.AddIfPresent(id, v) != ok {
					t.Fatalf("AddIfPresent(%d) presence = %v, want %v", id, !ok, ok)
				}
			case 3:
				if len(m) > 0 {
					want := m.min()
					if !m.popMatches(&h) {
						t.Fatalf("Pop disagrees with model, want (%d, %g)", want.id, want.prio)
					}
				}
			}
			if h.Len() != len(m) {
				t.Fatalf("Len = %d, model %d", h.Len(), len(m))
			}
		}
		if pending {
			h.Heapify()
		}
		for len(m) > 0 {
			if !m.popMatches(&h) {
				t.Fatal("drain disagrees with model")
			}
		}
	})
}
