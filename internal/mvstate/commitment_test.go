package mvstate

import (
	"testing"

	"mtpu/internal/state"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// applyWrites folds a write-set and fee into a plain StateDB the way a
// sequential replay leaves it: the materialised oracle for the store.
func applyWrites(db *state.StateDB, keys []state.AccessKey, vals []Value, coinbase types.Address, fee *uint256.Int) {
	for i, k := range keys {
		switch k.Kind {
		case state.AccessBalance:
			db.SetBalance(k.Addr, &vals[i].Word)
		case state.AccessNonce:
			db.SetNonce(k.Addr, vals[i].U64)
		case state.AccessCode:
			db.SetCode(k.Addr, vals[i].Code)
		case state.AccessStorage:
			db.SetState(k.Addr, k.Slot, vals[i].Word)
		}
	}
	if fee != nil && !fee.IsZero() {
		db.AddBalance(coinbase, fee)
	}
	db.DiscardJournal()
}

// TestPinnedDigestPricesItsOwnHeight is the shadow check's contract: a
// snapshot pinned before a fold prices a write-set against the state
// at its own height, not the folded head. A re-executed write-set that
// drops one of the block's writes must therefore miss the head digest.
func TestPinnedDigestPricesItsOwnHeight(t *testing.T) {
	genesis := storeGenesis()
	st := NewStore(genesis, nil)
	a, b := types.Address{19: 1}, types.Address{19: 2}

	pin := st.Pin()
	defer pin.Close()
	st.Commit([]state.AccessKey{balKey(a), balKey(b)}, []Value{word(11), word(22)}, types.Address{}, nil)

	dropped := state.NewOverrides()
	dropped.SetBalance(a, uint256.NewInt(11))
	if pin.DigestWith(dropped) == st.HeadDigest() {
		t.Fatal("a write-set missing B's write priced at the pin matches the folded head")
	}
	want := genesis.Copy()
	want.SetBalance(a, uint256.NewInt(11))
	if got := pin.DigestWith(dropped); got != want.Digest() {
		t.Fatalf("pinned DigestWith %s != pre-state plus overrides %s", got, want.Digest())
	}

	full := state.NewOverrides()
	full.SetBalance(a, uint256.NewInt(11))
	full.SetBalance(b, uint256.NewInt(22))
	if pin.DigestWith(full) != st.HeadDigest() {
		t.Fatal("the block's whole write-set priced at the pin misses the folded head")
	}
	if pin.Digest() != genesis.Digest() {
		t.Fatal("pinned Digest is not the digest at the pin's height")
	}
}

// TestSnapshotDigestWithReadsOnlyOverriddenKeys pins the O(write-set)
// cost of pricing without timing it: over a state of a thousand
// accounts, a pinned snapshot's DigestWith reads three scalars per
// account with a scalar override and one value per overridden slot,
// counted by the snapshot-read telemetry.
func TestSnapshotDigestWithReadsOnlyOverriddenKeys(t *testing.T) {
	genesis := state.New()
	for i := 0; i < 1000; i++ {
		addr := types.Address{18: byte(i >> 8), 19: byte(i)}
		genesis.SetBalance(addr, uint256.NewInt(uint64(i+1)))
		genesis.SetState(addr, types.Hash{31: 1}, *uint256.NewInt(uint64(i + 1)))
	}
	genesis.DiscardJournal()
	tel := telemetry.New()
	st := NewStore(genesis, tel)
	st.Commit([]state.AccessKey{balKey(types.Address{19: 5})}, []Value{word(9)}, types.Address{}, nil)
	pin := st.Pin()
	defer pin.Close()

	o := state.NewOverrides()
	o.SetBalance(types.Address{19: 5}, uint256.NewInt(3))
	o.SetNonce(types.Address{19: 7}, 1)
	for _, i := range []byte{1, 2, 3} {
		o.SetState(types.Address{19: i}, types.Hash{31: 1}, *uint256.NewInt(0))
	}
	before := tel.MVStateSnapshotReads.Load()
	got := pin.DigestWith(o)
	if reads := tel.MVStateSnapshotReads.Load() - before; reads != 3*2+3 {
		t.Fatalf("DigestWith made %d snapshot reads, want %d (only the overridden keys)", reads, 3*2+3)
	}

	want := genesis.Copy()
	want.SetBalance(types.Address{19: 5}, uint256.NewInt(3))
	want.SetNonce(types.Address{19: 7}, 1)
	for _, i := range []byte{1, 2, 3} {
		want.SetState(types.Address{19: i}, types.Hash{31: 1}, *uint256.NewInt(0))
	}
	if got != want.Digest() {
		t.Fatalf("pinned DigestWith %s != recomputed %s", got, want.Digest())
	}
}

// TestSweepBoundsBookkeeping folds 10^4 blocks of fresh keys with no
// pins: the version bookkeeping must stay at about one block's keys,
// not grow with every key ever folded, and the running commitment must
// still equal the head hashed from scratch.
func TestSweepBoundsBookkeeping(t *testing.T) {
	tel := telemetry.New()
	st := NewStore(storeGenesis(), tel)
	coinbase := types.Address{19: 0xfe}
	const perBlock = 4
	for blk := 0; blk < 10000; blk++ {
		keys := make([]state.AccessKey, perBlock)
		vals := make([]Value, perBlock)
		for i := range keys {
			n := blk*perBlock + i
			keys[i] = storageKey(types.Address{19: 9}, types.Hash{28: byte(n >> 24), 29: byte(n >> 16), 30: byte(n >> 8), 31: byte(n)})
			vals[i] = word(uint64(n + 1))
		}
		st.Commit(keys, vals, coinbase, uint256.NewInt(1))
	}
	st.mu.RLock()
	nVersions, nFolds, entries := len(st.versions), len(st.folds), st.entries
	st.mu.RUnlock()
	if nVersions > perBlock+1 || nFolds > 1 || entries > perBlock+1 {
		t.Fatalf("bookkeeping grew: %d chains, %d fold lists, %d entries after 10^4 blocks", nVersions, nFolds, entries)
	}
	if got := tel.MVStateChainEntries.Load(); got != int64(entries) {
		t.Fatalf("chain-entries gauge %d != %d live entries", got, entries)
	}
	if err := tel.Snapshot().MVState.Check(); err != nil {
		t.Fatalf("telemetry invariants: %v", err)
	}
	if st.HeadDigest() != st.HeadDB().Digest() {
		t.Fatal("running commitment diverged from the recomputed head digest")
	}
}

// TestInvalidatedAfterSweep checks that a swept key never hides a fold:
// below the swept height every key without a chain answers stale, at
// or above it the answer is exact, and a live pin keeps the sweep below
// its own height.
func TestInvalidatedAfterSweep(t *testing.T) {
	st := NewStore(storeGenesis(), nil)
	a, b, never := types.Address{19: 1}, types.Address{19: 2}, types.Address{19: 3}
	// Folds at heights 1 and 2; with no pins the second sweeps a's chain.
	st.Commit([]state.AccessKey{balKey(a)}, []Value{word(1)}, types.Address{}, nil)
	st.Commit([]state.AccessKey{balKey(b)}, []Value{word(2)}, types.Address{}, nil)

	if !st.Invalidated([]state.AccessKey{balKey(a)}, 0) {
		t.Error("swept key folded at 1 reported clean for a read at 0")
	}
	if st.Invalidated([]state.AccessKey{balKey(a)}, 1) {
		t.Error("swept key reported stale for a read at its last-write height")
	}
	if !st.Invalidated([]state.AccessKey{balKey(b)}, 1) || st.Invalidated([]state.AccessKey{balKey(b)}, 2) {
		t.Error("chained key misjudged against its last write")
	}

	// A pin at height 2, then folds at heights 3 and 4.
	pin := st.Pin()
	st.Commit([]state.AccessKey{balKey(a)}, []Value{word(3)}, types.Address{}, nil)
	st.Commit([]state.AccessKey{balKey(b)}, []Value{word(4)}, types.Address{}, nil)
	if st.Invalidated([]state.AccessKey{balKey(never)}, 2) {
		t.Error("never-folded key reported stale while a pin holds the sweep below the read")
	}
	if !st.Invalidated([]state.AccessKey{balKey(a)}, 2) {
		t.Error("key folded after the pin reported clean")
	}
	if got := pin.GetBalance(a).Uint64(); got != 1 {
		t.Errorf("pinned read of a re-chained swept key = %d, want 1", got)
	}
	pin.Close()
}
