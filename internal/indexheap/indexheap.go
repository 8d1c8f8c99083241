// Package indexheap provides an indexed min-heap over the node ids of a
// graph, supporting O(log n) priority changes by id. It is the "minimal
// heap" the paper relies on for FDET's O(kˆ|E| log(|U|+|V|)) bound (§IV-B):
// greedy peeling repeatedly pops the minimum-priority node and lowers the
// priorities of its neighbours.
//
// Order. Pops follow the total order on (priority, id): minimum priority
// first, ties to the lower id. Every operation keeps the heap invariant
// under that strict order, and ids are distinct, so the pop sequence is the
// sorted sequence of the live (priority, id) pairs whatever the internal
// layout — the property the FDET peeler's byte-identical votes rest on.
//
// Keys. A slot stores an order-preserving uint64 encoding of its float64
// priority next to its id (see encode): −0 is folded onto +0, then negative
// floats have all bits flipped and the rest get the sign bit set, so
// unsigned key order is float order on every non-NaN value, ±Inf and
// subnormals included. A compare of (key, id) is then one 128-bit unsigned
// compare, two SUB/SBB instructions whose borrow is the result — no branch.
// The key decodes back to the exact priority (−0 comes back as +0).
//
// Shape. The heap is 4-ary, so the four children of a slot share one cache
// line. The min child is picked by index arithmetic on three compare bits,
// without branches. Pop is bottom-up: it walks the root's hole down to a
// leaf along min children without comparing against the displaced last
// slot, then sifts that slot up from the leaf, where it usually stays — it
// came from the bottom. Sifts move slots hole-style, one write per level.
package indexheap

import (
	"math"
	"math/bits"
)

// slot is one heap entry. Keeping the key next to the id means a comparison
// touches only the heap array.
type slot struct {
	key uint64 // encode(priority)
	id  uint32
}

// Heap is an indexed min-heap of float64 priorities keyed by dense int ids in
// [0, capacity). The zero value is ready for Reset.
type Heap struct {
	slots []slot
	pos   []int32 // pos[id] = index in slots, or -1 if absent
}

const absent = int32(-1)

// encode maps a non-NaN priority to a key whose unsigned order is the
// float order, with −0 and +0 mapping to the same key.
func encode(p float64) uint64 {
	b := math.Float64bits(p)
	if b == 1<<63 { // −0
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// decode inverts encode.
func decode(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// lessBit is 1 when a orders before b by (key, id), else 0: the borrow out
// of the 128-bit subtraction (a.key:a.id) − (b.key:b.id).
func lessBit(a, b slot) int {
	_, borrow := bits.Sub64(uint64(a.id), uint64(b.id), 0)
	_, borrow = bits.Sub64(a.key, b.key, borrow)
	return int(borrow)
}

// Reset empties the heap and prepares it for ids in [0, capacity), growing
// storage only when the capacity exceeds anything seen before. It costs
// O(capacity) but allocates nothing once warm, which is what lets a peeler
// run round after round without heap churn.
func (h *Heap) Reset(capacity int) {
	if cap(h.pos) < capacity {
		h.pos = make([]int32, capacity)
		h.slots = make([]slot, 0, capacity)
	}
	h.pos = h.pos[:capacity]
	h.slots = h.slots[:0]
	for i := range h.pos {
		h.pos[i] = absent
	}
}

// Len returns the number of ids currently in the heap.
func (h *Heap) Len() int { return len(h.slots) }

// PushUnordered appends id without restoring heap order; Heapify restores
// it for the whole batch in O(n). The heap must not be popped or updated
// between a PushUnordered and the next Heapify. It panics if id is already
// present.
func (h *Heap) PushUnordered(id int, priority float64) {
	if h.pos[id] != absent {
		panic("indexheap: Push of id already in heap")
	}
	h.pos[id] = int32(len(h.slots))
	h.slots = append(h.slots, slot{key: encode(priority), id: uint32(id)})
}

// Heapify restores heap order after PushUnordered calls using Floyd's
// bottom-up construction.
func (h *Heap) Heapify() {
	for i := (len(h.slots) - 2) >> 2; i >= 0; i-- {
		h.down(i, h.slots[i])
	}
}

// Pop removes and returns the id with minimum priority and that priority.
// Ties are broken toward the lower id. It panics on an empty heap.
func (h *Heap) Pop() (id int, priority float64) {
	if len(h.slots) == 0 {
		panic("indexheap: Pop from empty heap")
	}
	top := h.slots[0]
	n := len(h.slots) - 1
	last := h.slots[n]
	h.slots = h.slots[:n]
	h.pos[top.id] = absent
	if n > 0 {
		h.up(h.descend(0), 0, last)
	}
	return int(top.id), decode(top.key)
}

// AddIfPresent increments the priority of id by delta (delta may be
// negative) when id is in the heap, and reports whether it was. A zero delta
// leaves the key as it is.
func (h *Heap) AddIfPresent(id int, delta float64) bool {
	i := h.pos[id]
	if i == absent {
		return false
	}
	x := h.slots[i]
	x.key = encode(decode(x.key) + delta)
	switch {
	case delta < 0:
		h.up(int(i), 0, x)
	case delta > 0:
		h.down(int(i), x)
	}
	return true
}

// down places x at the hole i and restores order below it, bottom-up.
func (h *Heap) down(i int, x slot) {
	h.up(h.descend(i), i, x)
}

// minTail returns the index of the least slot in s[c:], the partial last
// group of children.
func minTail(s []slot, c int) int {
	m := c
	for j := c + 1; j < len(s); j++ {
		m += (j - m) * lessBit(s[j], s[m])
	}
	return m
}

// descend moves the hole at i down to a leaf, filling each hole with its
// least child, and returns the leaf index. It makes no compare against the
// slot that will fill the final hole; up does that from the bottom.
func (h *Heap) descend(i int) int {
	s := h.slots
	c := i<<2 + 1
	for c+4 <= len(s) {
		// Min of four by index arithmetic: a is the lesser of the first
		// pair, b of the second, and the last bit picks between them.
		q := s[c : c+4 : c+4]
		a := lessBit(q[1], q[0])
		b := 2 + lessBit(q[3], q[2])
		m := c + a + (b-a)*lessBit(q[b], q[a])
		s[i] = s[m]
		h.pos[s[i].id] = int32(i)
		i, c = m, m<<2+1
	}
	if c < len(s) {
		m := minTail(s, c)
		s[i] = s[m]
		h.pos[s[i].id] = int32(i)
		i = m
	}
	return i
}

// up places x at the hole i and sifts it toward the root, stopping at top.
func (h *Heap) up(i, top int, x slot) {
	s := h.slots
	for i > top {
		parent := (i - 1) >> 2
		ps := s[parent]
		if lessBit(x, ps) == 0 {
			break
		}
		s[i] = ps
		h.pos[ps.id] = int32(i)
		i = parent
	}
	s[i] = x
	h.pos[x.id] = int32(i)
}
