package starss

import (
	"math/bits"
	"math/rand"
	"testing"
)

// tableModel drives an addrTable beside a Go map of the same keys. The tests
// inject the hashes — the table takes them from its caller — so they choose
// which keys collide.
type tableModel struct {
	t     testing.TB
	tab   *addrTable
	model map[tableKey]*segState
}

func newTableModel(t testing.TB) *tableModel {
	return &tableModel{t: t, tab: newAddrTable(), model: map[tableKey]*segState{}}
}

// insert files a new segment for k under hash h; k must not be filed.
func (m *tableModel) insert(k tableKey, h uint64) {
	m.t.Helper()
	got, at := m.tab.find(h, k)
	if got != nil {
		m.t.Fatalf("find(%#x, %v) = %p before the key was filed", h, k, got)
	}
	seg := &segState{key: k, hash: h}
	m.tab.put(at, seg)
	if 2*m.tab.count > len(m.tab.slots) {
		m.tab.grow()
	}
	m.model[k] = seg
}

func (m *tableModel) remove(k tableKey) {
	m.t.Helper()
	m.tab.remove(m.model[k])
	delete(m.model, k)
}

// check compares the table with the model and verifies the probing
// invariant: every filed segment is reachable from its home slot without
// crossing an empty one, the load is at most ½, and no slot is half empty.
func (m *tableModel) check() {
	m.t.Helper()
	tab := m.tab
	if tab.count != len(m.model) {
		m.t.Fatalf("table counts %d segments, the model holds %d", tab.count, len(m.model))
	}
	if n := len(tab.slots); n&(n-1) != 0 || 2*tab.count > n || int(tab.shift) != 65-bits.Len(uint(n)) {
		m.t.Fatalf("%d segments in %d slots, shift %d", tab.count, n, tab.shift)
	}
	for k, seg := range m.model {
		if got, _ := tab.find(seg.hash, k); got != seg {
			m.t.Fatalf("find(%#x, %v) = %p, want %p", seg.hash, k, got, seg)
		}
	}
	mask, filed := len(tab.slots)-1, 0
	for i, s := range tab.slots {
		if s.seg == nil {
			if s.hash != 0 {
				m.t.Fatalf("empty slot %d keeps hash %#x", i, s.hash)
			}
			continue
		}
		filed++
		if s.hash != s.seg.hash || m.model[s.seg.key] != s.seg {
			m.t.Fatalf("slot %d files %s under hash %#x; the model has %p for its key", i, segFields(s.seg), s.hash, m.model[s.seg.key])
		}
		for j := int(s.hash >> tab.shift); j != i; j = (j + 1) & mask {
			if tab.slots[j].seg == nil {
				m.t.Fatalf("slot %d (home %d) is cut off from its home by empty slot %d", i, int(s.hash>>tab.shift), j)
			}
		}
	}
	if filed != tab.count {
		m.t.Fatalf("table counts %d segments, its slots hold %d", tab.count, filed)
	}
}

// homeHash is a hash whose home is the same slot, home/8 of the way through
// the table, at every table size; low tells the hashes of one home apart.
func homeHash(home, low uint64) uint64 { return home<<61 | low }

// key is the i-th test key: address i/3 (in 64-byte units) in namespace
// i%3, so keys 3j, 3j+1 and 3j+2 are one address in three namespaces, and
// key(0) is address 0 of namespace 0. The hashes being the tests' to choose,
// such keys share clusters, and only find's key compare tells them apart.
func key(i int) tableKey { return tableKey{ns: uint64(i % 3), addr: uint64(i/3) << 6} }

// TestAddrTableClusters forces every collision shape: all keys on one home
// slot (in the middle of the table, and on its last slot at every size, so
// the cluster wraps the end of the slice), through several doublings — the
// table grows in the middle of the cluster — then removal from the head, the
// middle and the tail of the cluster, checking after every step that each
// remaining member is still found.
func TestAddrTableClusters(t *testing.T) {
	const n = 40
	homes := map[string]uint64{
		"mid-table home": homeHash(3, 0),
		"last-slot home": 0xffffffff_00000000,
	}
	orders := map[string]func(i int) int{
		"head first": func(i int) int { return i },
		"tail first": func(i int) int { return n - 1 - i },
		"middle out": func(i int) int {
			if i%2 == 0 {
				return n/2 + i/2
			}
			return n/2 - 1 - i/2
		},
	}
	for home, base := range homes {
		for name, order := range orders {
			t.Run(home+", "+name, func(t *testing.T) {
				m := newTableModel(t)
				for i := 0; i < n; i++ {
					m.insert(key(i), base|uint64(i))
					m.check()
				}
				if len(m.tab.slots) < 2*n {
					t.Fatalf("%d segments in %d slots", n, len(m.tab.slots))
				}
				if wraps := m.tab.slots[0].seg != nil; wraps != (base>>63 == 1) {
					t.Fatalf("cluster wraps the end of the table: %v", wraps)
				}
				for i := 0; i < n; i++ {
					m.remove(key(order(i)))
					m.check()
				}
				for i, s := range m.tab.slots {
					if s != (slot{}) {
						t.Fatalf("slot %d of the drained table is not zero: %+v", i, s)
					}
				}
			})
		}
	}
}

// TestAddrTableInterleavedClusters removes from clusters that share slots:
// members of three neighbouring homes interleave, so a backward shift must
// skip the members that are already at or before their home.
func TestAddrTableInterleavedClusters(t *testing.T) {
	m := newTableModel(t)
	for i := 0; i < 24; i++ {
		m.insert(key(i), homeHash(uint64(5+i%3), uint64(i)))
	}
	m.check()
	for _, i := range []int{0, 13, 2, 23, 7, 8, 9, 1, 22} {
		m.remove(key(i))
		m.check()
	}
	for i := 24; i < 40; i++ {
		m.insert(key(i), homeHash(uint64(5+i%3), uint64(i)))
		m.check()
	}
}

// TestAddrTableEqualHashes files keys whose 64-bit hashes are equal: the
// hash compare passes, so only the key compare tells them apart — one
// address in two namespaces included.
func TestAddrTableEqualHashes(t *testing.T) {
	m := newTableModel(t)
	const h = 0xdeadbeefcafef00d
	for i := 0; i < 10; i++ {
		m.insert(key(i), h)
	}
	m.check()
	for name, k := range map[string]tableKey{
		"a filed address in another namespace": {9, key(4).addr},
		"another address in a filed namespace": {key(2).ns, 1},
		"address 0 in another namespace":       {3, 0},
	} {
		if got, _ := m.tab.find(h, k); got != nil {
			t.Fatalf("%s: found %s for a key that was never filed", name, segFields(got))
		}
	}
	for _, i := range []int{4, 0, 9} {
		m.remove(key(i))
		m.check()
		if got, _ := m.tab.find(h, key(i)); got != nil {
			t.Fatalf("key %d is still found after its removal", i)
		}
	}
}

// TestAddrTableRemoveUnfiled: taking out a segment the table does not file —
// never filed, or already removed — is a caller's bug and must not pass.
func TestAddrTableRemoveUnfiled(t *testing.T) {
	m := newTableModel(t)
	for i := 0; i < 5; i++ {
		m.insert(key(i), homeHash(2, uint64(i)))
	}
	gone := m.model[key(2)]
	m.remove(key(2))
	for name, seg := range map[string]*segState{
		"removed twice":      gone,
		"never filed":        {key: key(77), hash: homeHash(2, 77)},
		"an empty home":      {key: key(78), hash: homeHash(6, 78)},
		"a copy of a member": {key: key(1), hash: homeHash(2, 1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: remove did not panic", name)
				}
			}()
			m.tab.remove(seg)
		}()
		m.check()
	}
}

// TestAddrTableChurn is the property tombstones would have broken: a million
// insert/remove pairs over at most 64 live keys — keys come and go at the
// rate of the task stream — never grow the slot array past the size the
// live set first needed.
func TestAddrTableChurn(t *testing.T) {
	m := newTableModel(t)
	const live = 64
	// A multiplicative hash: spread, but with real collisions at this size.
	hash := func(i int) uint64 { return uint64(i+1) * 0x9e3779b97f4a7c15 }
	for i := 0; i < live; i++ {
		m.insert(key(i), hash(i))
	}
	size := len(m.tab.slots)
	if size != 2*live {
		t.Fatalf("%d live keys sit in %d slots, want %d", live, size, 2*live)
	}
	pairs := 1_000_000
	if testing.Short() {
		pairs = 50_000
	}
	for i := 0; i < pairs; i++ {
		m.remove(key(i))
		m.insert(key(i+live), hash(i+live))
		if i%(pairs/20) == 0 {
			m.check()
		}
	}
	m.check()
	if len(m.tab.slots) != size {
		t.Fatalf("the slot array grew from %d to %d under churn", size, len(m.tab.slots))
	}
}

// TestBankSweepKeepsLiveKeys files keys through bank.takeSeg — which sweeps
// the retired segments out when the free list is empty and when the load
// passes ½, moving the slots under the key it is filing — on hashes that
// share three homes, so clusters are long and every removal shifts one. A
// share of the filed segments is retired as it goes, as finishers do. After
// every filing, the table files exactly the segments that are live or
// retired and not yet swept, every live one where find looks for it
// (check), and no swept segment is still filed.
func TestBankSweepKeepsLiveKeys(t *testing.T) {
	const keep = 4
	b := &bank{table: newAddrTable()}
	r := rand.New(rand.NewSource(1))
	live := map[tableKey]*segState{}
	var liveKeys []tableKey
	sweeps := 0
	for i := 0; i < 20000; i++ {
		k, h := key(i), homeHash(uint64(r.Intn(3)), uint64(i))
		got, at := b.table.find(h, k)
		if got != nil {
			t.Fatalf("key %d is found before it was filed", i)
		}
		before := b.filed
		seg := b.takeSeg(k, h, at, keep)
		seg.state.Store(segOut)
		if b.filed <= before {
			sweeps++
		}
		live[k] = seg
		liveKeys = append(liveKeys, k)
		for len(liveKeys) > 0 && r.Intn(8) < 5 {
			j := r.Intn(len(liveKeys))
			live[liveKeys[j]].state.Store(segRetired)
			delete(live, liveKeys[j])
			liveKeys[j] = liveKeys[len(liveKeys)-1]
			liveKeys = liveKeys[:len(liveKeys)-1]
		}
		m := &tableModel{t: t, tab: b.table, model: map[tableKey]*segState{}}
		for _, s := range b.table.slots {
			if s.seg != nil {
				m.model[s.seg.key] = s.seg
			}
		}
		m.check()
		for k, seg := range live {
			if m.model[k] != seg {
				t.Fatalf("filing key %d lost live key %v", i, k)
			}
		}
		for seg := b.free; seg != nil; seg = seg.nextFree {
			if m.model[seg.key] == seg {
				t.Fatalf("filing key %d: a free segment is still filed", i)
			}
		}
		if b.nfree > keep {
			t.Fatalf("%d free segments, bound %d", b.nfree, keep)
		}
	}
	if sweeps < 100 {
		t.Fatalf("%d sweeps in 20000 filings", sweeps)
	}
}

// FuzzAddrTable replays a byte stream as insert/find/remove/retire/sweep
// operations on a table and on the map model, with hashes the stream itself
// degrades: byte 0 chooses how many home slots the keys share, byte 1 whether
// all hashes of a home are equal. Then two bytes an operation: what, and on
// which of 256 keys — the second byte so also draws the key's namespace
// (key). A retired key stays filed until a sweep, which must take out
// exactly the retired ones.
func FuzzAddrTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 2, 1, 1, 2, 2, 3, 2, 2})
	f.Add([]byte{7, 1, 0, 9, 0, 17, 0, 25, 0, 33, 2, 17, 1, 25, 2, 9, 0, 9})
	f.Add([]byte{1, 0, 0, 0, 0, 2, 0, 4, 0, 6, 0, 8, 0, 10, 0, 12, 2, 0, 2, 12, 2, 6})
	wrap := []byte{0, 0}
	for i := byte(0); i < 40; i++ {
		wrap = append(wrap, 0, 7+8*i) // forty keys on the last home
	}
	for i := byte(0); i < 40; i += 3 {
		wrap = append(wrap, 2, 7+8*i)
	}
	f.Add(wrap)
	f.Add(append(wrap[:len(wrap):len(wrap)], 3, 7, 3, 31, 3, 111, 4, 0, 1, 15, 3, 15, 3, 23, 4, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		homes, equal := uint64(data[0]%8)+1, data[1]&1 == 1
		hash := func(id int) uint64 {
			if equal {
				return homeHash(uint64(id)%8%homes, 0)
			}
			return homeHash(uint64(id)%8%homes, uint64(id)*0x9e3779b97f4a7c15>>3)
		}
		m := newTableModel(t)
		for ops := data[2:]; len(ops) >= 2; ops = ops[2:] {
			id := int(ops[1])
			k := key(id)
			_, filed := m.model[k]
			switch ops[0] % 5 {
			case 0:
				if !filed {
					m.insert(k, hash(id))
				}
			case 1:
				if got, _ := m.tab.find(hash(id), k); got != m.model[k] {
					t.Fatalf("find(key %d) = %p, the model has %p", id, got, m.model[k])
				}
			case 2:
				if filed {
					m.remove(k)
				}
			case 3:
				if filed {
					m.model[k].state.Store(segRetired)
				}
			case 4:
				m.tab.sweep(func(seg *segState) {
					if seg.state.Load() != segRetired || m.model[seg.key] != seg {
						t.Fatalf("the sweep took out %s", segFields(seg))
					}
					delete(m.model, seg.key)
				})
				for _, seg := range m.model {
					if seg.state.Load() == segRetired {
						t.Fatalf("the sweep left %s filed", segFields(seg))
					}
				}
			}
			m.check()
		}
	})
}
