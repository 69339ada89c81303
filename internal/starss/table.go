package starss

import "math/bits"

// addrTable is one bank's Dependence Table proper: an open-addressed hash
// table of the bank's filed segments, written for this one job. The
// caller supplies each key's 64-bit hash (Runtime.hashKey, computed once in
// a task's life), whose high bits choose the home slot — the low bits chose
// the bank. A segment carries its own key and hash, so removing one needs
// neither a key nor a second hash.
//
// Collisions probe linearly: a lookup compares the 8-byte hash stored in
// the slot and touches the segment — to compare keys — only on a match, so a probe walks one or two cache lines of slots. The load
// stays at or below ½, which keeps the expected probe of a miss under three
// slots. Deletion shifts the rest of the cluster back over the hole instead
// of leaving a tombstone: a table whose keys come and go at the rate of the
// task stream would otherwise fill with tombstones and have to be rebuilt.
// The table holds the keys in flight and the retired segments no sweep has
// taken out yet (bank.takeSeg decides when it sweeps and when it grows); it
// never shrinks. All of it runs under the bank lock.
type addrTable struct {
	slots []slot // len is a power of two
	shift uint8  // 64 − log2(len(slots)): home = hash >> shift
	count int
}

// slot files one segment under its key's hash; a nil seg marks it empty.
type slot struct {
	hash uint64
	seg  *segState
}

// tableMinSlots is the size every table starts at.
const tableMinSlots = 8

func newAddrTable() *addrTable {
	t := &addrTable{}
	t.resize(tableMinSlots)
	return t
}

// resize gives the table n empty slots; n is a power of two.
func (t *addrTable) resize(n int) {
	t.slots = make([]slot, n)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
}

// find probes for key k, whose hash is h. It returns k's segment, or nil and
// the empty slot that ended the probe — the one put files a new segment in,
// valid until the table next changes.
func (t *addrTable) find(h uint64, k tableKey) (*segState, int) {
	mask := len(t.slots) - 1
	for i := int(h >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.seg == nil {
			return nil, i
		}
		if s.hash == h && s.seg.key == k {
			return s.seg, i
		}
	}
}

// put files seg, under the key and hash it carries, in slot at: the slot a
// find of that key just missed on. It leaves the load to its caller, who
// must bring it back to ½ or below (bank.takeSeg) before the next find, so
// that every probe has an empty slot to end on.
func (t *addrTable) put(at int, seg *segState) {
	t.slots[at] = slot{seg.hash, seg}
	t.count++
}

// grow doubles the table. No two slots hold the same key, so re-filing a
// segment never compares keys: it takes the first empty slot from its home.
func (t *addrTable) grow() {
	old := t.slots
	t.resize(2 * len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.seg == nil {
			continue
		}
		i := int(s.hash >> t.shift)
		for t.slots[i].seg != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// remove takes seg out of the table and closes the hole it leaves: every
// later member of the cluster that the hole would cut off from its home
// moves back into it, by the hashes the slots store. The last slot vacated
// is zeroed, so the table keeps no pointer to a segment it no longer files.
// Members only move back, towards their homes, and the slot seg left may
// receive one: a scan that removes as it goes looks at that slot again
// (sweep). Removing a segment that is not filed is a bug in the caller and
// panics.
func (t *addrTable) remove(seg *segState) {
	mask := len(t.slots) - 1
	i := int(seg.hash >> t.shift)
	for t.slots[i].seg != seg {
		if t.slots[i].seg == nil {
			panic("starss: removing a segment the dependence table does not file")
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.slots[j].seg != nil; j = (j + 1) & mask {
		// The member in j may fill the hole in i unless its home lies
		// (cyclically) after i: then it is still reachable where it is.
		home := int(t.slots[j].hash >> t.shift)
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.count--
}

// sweep takes every retired segment out of the table and hands each to
// recycle, in one pass over the slots that looks at a slot again after
// emptying it (remove, which also checks the segment is where its hash says).
// A retired segment stays retired under the bank lock, which the caller
// holds; a segment a finisher retires while the pass runs may be left for
// the next.
func (t *addrTable) sweep(recycle func(*segState)) {
	for i := 0; i < len(t.slots); {
		seg := t.slots[i].seg
		if seg == nil || seg.state.Load() != segRetired {
			i++
			continue
		}
		t.remove(seg)
		recycle(seg)
	}
}
