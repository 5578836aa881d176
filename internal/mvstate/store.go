// Package mvstate is the unified multi-version state layer shared by
// every execution engine. It generalizes Block-STM's multi-version
// memory (the intra-block version lists in MVMemory/View, which the
// stm executor drives) to the cross-block axis: a Store owns the
// canonical head StateDB and keeps, per recently written state key, a
// short version chain of the values committed at each block height. Pinned
// Snapshots read the state as of their height even while later blocks
// fold in, which is what lets the stream pipeline prefetch and decode
// block N+1 while block N is still executing — the versioned analogue
// of the State Buffer holding hot state across blocks in the paper's
// architecture.
//
// The layering mirrors PArSEC's split between the execution layer and
// a versioned key-value backend: engines execute against Reader
// snapshots (DAG engines through an Overlay, the STM executor through
// View/MVMemory), and the commit stage folds each block's winning
// write-set into the head with Commit. Version chains are pruned as
// pins release, and a key whose only version every live pin already
// sees is swept out, so the steady-state memory cost is the head plus a
// few entries per recently-written key.
//
// The store also keeps the head's state commitment (state.Sum) as a
// running sum. Commit updates it through the same delta path that
// prices a write-set (Sum.With), and every snapshot carries the sum of
// its height, so HeadDigest is O(1) and pricing a block's digest is
// O(write-set), not O(state).
package mvstate

import (
	"sync"

	"mtpu/internal/state"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// Reader is the read-only state surface engines execute against: both
// *state.StateDB and *Snapshot satisfy it, so the same View/Overlay
// code runs in one-shot replays (bare genesis) and in the chained
// stream service (store snapshots).
type Reader interface {
	state.Reader
	Exist(types.Address) bool
	GetCode(types.Address) []byte
}

var _ Reader = (*state.StateDB)(nil)
var _ Reader = (*Snapshot)(nil)

// centry is one committed version of a key: the value the key holds
// from block `height` onward.
type centry struct {
	height uint64
	val    Value
}

// versions is one key's version chain, oldest first. Its first entry
// may be the pre-image the key held before the fold that created the
// chain; the last entry's height is the key's last write.
type versions struct {
	chain []centry
}

func (v *versions) last() uint64 { return v.chain[len(v.chain)-1].height }

// foldList is the set of keys one Commit folded. A key's chain is
// always listed under its last-write height, so sweeping the lists
// below the pin floor reaches every chain that has become prunable.
type foldList struct {
	height uint64
	keys   []state.AccessKey
}

// Store owns the canonical head state and the per-key version chains
// that let pinned snapshots read past heights. All mutation happens in
// Commit under the write lock; pinned snapshot reads take the read
// lock. The commit stage may additionally read the head StateDB
// lock-free through Head()/HeadDB() — see those methods for the
// sequencing contract.
type Store struct {
	mu      sync.RWMutex
	heightC *sync.Cond // signaled on every Commit and on Interrupt

	base        *state.StateDB // canonical head; mutated only by Commit
	sum         state.Sum      // commitment of base, kept by Commit
	height      uint64         // number of blocks folded in
	interrupted bool

	versions map[state.AccessKey]*versions
	folds    []foldList // unswept fold lists, in height order
	// swept is the highest height whose fold list was swept: every key
	// without a chain was last written at or below it (or never).
	swept uint64

	pins map[uint64]int // snapshot height -> refcount

	tel      *telemetry.Metrics
	entries  int // live chain entries across all keys
	maxChain int
}

// NewStore copies genesis into a private head, hashes its commitment
// once, and returns a store at height 0. tel may be nil.
func NewStore(genesis *state.StateDB, tel *telemetry.Metrics) *Store {
	s := &Store{
		base:     genesis.Copy(),
		versions: make(map[state.AccessKey]*versions),
		pins:     make(map[uint64]int),
		tel:      tel,
	}
	s.sum = s.base.Sum()
	s.heightC = sync.NewCond(s.mu.RLocker())
	return s
}

// Height returns the number of blocks folded into the head.
func (s *Store) Height() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.height
}

// WaitHeight blocks until the head reaches height h (or returns
// immediately if it already has). It returns false when the store was
// interrupted before the height was reached — the caller is shutting
// down and must not touch the head.
func (s *Store) WaitHeight(h uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for s.height < h && !s.interrupted {
		s.heightC.Wait()
	}
	return s.height >= h
}

// Interrupt wakes every WaitHeight waiter and makes all future waits
// fail fast. Used on pipeline halt so a stage blocked on a fold that
// will never happen can exit.
func (s *Store) Interrupt() {
	s.mu.Lock()
	s.interrupted = true
	s.mu.Unlock()
	s.heightC.Broadcast()
}

// Release drops the head state and the version bookkeeping for good,
// keeping the height and the head commitment: after a service drains,
// nothing folds or reads state again, but its report and health check
// still ask for Height and HeadDigest. Only Height, WaitHeight,
// Interrupt and HeadDigest may be called after Release.
func (s *Store) Release() {
	s.mu.Lock()
	s.base, s.versions, s.folds, s.pins = nil, nil, nil, nil
	s.mu.Unlock()
}

// HeadDigest returns the digest of the head's running commitment: O(1),
// equal to HeadDB().Digest() hashed from scratch.
func (s *Store) HeadDigest() types.Hash {
	s.mu.RLock()
	sum := s.sum
	s.mu.RUnlock()
	return sum.Digest()
}

// Head returns a bare snapshot of the canonical head: reads go straight
// to the head StateDB with no locking. It is only safe on the sequenced
// execute/commit path, where the caller has established (via WaitHeight
// or channel ordering) that no Commit runs concurrently with its reads.
func (s *Store) Head() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Snapshot{db: s.base, height: s.height, sum: s.sum}
}

// HeadDB exposes the head StateDB under the same sequencing contract
// as Head — for shadow validation, which replays sequentially against
// the chained pre-state before the block is folded in.
func (s *Store) HeadDB() *state.StateDB { return s.base }

// Pin returns a snapshot pinned at the current height: reads resolve
// through the version chains under the read lock, so they keep
// observing the pinned height even while later blocks fold into the
// head concurrently. Callers must Close the snapshot to release the
// pin and let the chains prune.
func (s *Store) Pin() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[s.height]++
	return &Snapshot{store: s, db: s.base, height: s.height, pinned: true, sum: s.sum}
}

func (s *Store) unpin(h uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.pins[h]; n > 1 {
		s.pins[h] = n - 1
	} else {
		delete(s.pins, h)
	}
}

// Invalidated reports whether any of keys was folded after height
// since: a prefetch that resolved those keys from a snapshot at that
// height read stale values and must be redone. A key with a chain is
// judged by its last write. A key without one was last written at or
// below the swept height (or never), so it is clean when since is at
// or above that height and conservatively stale below it: a swept key
// never hides a fold. While a pin at since is live the floor stays at
// or below since, the sweep stays below it, and the answer is exact.
func (s *Store) Invalidated(keys []state.AccessKey, since uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	stale := false
	for _, k := range keys {
		if v := s.versions[k]; v != nil {
			stale = v.last() > since
		} else {
			stale = since < s.swept
		}
		if stale {
			break
		}
	}
	if s.tel != nil {
		s.tel.MVStateRevalidations.Inc()
		if stale {
			s.tel.MVStateInvalidations.Inc()
		}
	}
	return stale
}

// Commit folds one block's write-set into the head: each key gets a
// new chain version at the next height and the head StateDB is updated
// in place. The block's aggregate fee is folded as one more chained
// coinbase-balance write (the carve-out keeps it out of write-sets, so
// it is re-attached here). The running commitment is updated through
// the same delta path that priced the block (BuildOverrides then
// Sum.With), before the head mutates. Chains are pruned against the
// lowest live pin, and fold lists below it are swept. Returns the new
// height.
func (s *Store) Commit(keys []state.AccessKey, vals []Value, coinbase types.Address, fee *uint256.Int) uint64 {
	s.mu.Lock()
	h := s.height + 1

	floor := h
	for ph := range s.pins {
		if ph < floor {
			floor = ph
		}
	}

	s.sum = s.sum.With(s.base, BuildOverrides(s.base, keys, vals, coinbase, fee))
	var feeBal Value
	withFee := fee != nil && !fee.IsZero()
	if withFee {
		feeBal.Word.Add(s.base.GetBalance(coinbase), fee)
	}

	folded, pruned := 0, 0
	fold := make([]state.AccessKey, 0, len(keys)+1)
	apply := func(k state.AccessKey, val Value) {
		v := s.versions[k]
		if v == nil {
			// Seed the chain with the pre-image so snapshots pinned below
			// h keep reading the pre-fold value after the head mutates.
			// The key last changed at or below the swept height, and every
			// live pin sits above that, so the pre-image holds from there.
			v = &versions{chain: []centry{{height: s.swept, val: s.baseValue(k)}}}
			s.versions[k] = v
			s.entries++
		}
		v.chain = append(v.chain, centry{height: h, val: val})
		s.entries++
		folded++
		pruned += s.prune(v, floor)
		if len(v.chain) > s.maxChain {
			s.maxChain = len(v.chain)
		}
		fold = append(fold, k)

		switch k.Kind {
		case state.AccessBalance:
			s.base.SetBalance(k.Addr, &val.Word)
		case state.AccessNonce:
			s.base.SetNonce(k.Addr, val.U64)
		case state.AccessCode:
			s.base.SetCode(k.Addr, val.Code)
		case state.AccessStorage:
			s.base.SetState(k.Addr, k.Slot, val.Word)
		}
	}

	for i := range keys {
		apply(keys[i], vals[i])
	}
	if withFee {
		apply(balKey(coinbase), feeBal)
	}
	// The head's setters journal; the fold is final, so drop the undo log
	// instead of letting it grow with every block.
	s.base.DiscardJournal()
	s.height = h
	s.folds = append(s.folds, foldList{height: h, keys: fold})
	pruned += s.sweep(floor)

	if s.tel != nil {
		s.tel.MVStateCommits.Inc()
		s.tel.MVStateVersionsFolded.Add(uint64(folded))
		s.tel.MVStateVersionsGCd.Add(uint64(pruned))
		s.tel.MVStateChainEntries.Set(int64(s.entries))
		s.tel.MVStateMaxChainLen.Set(int64(s.maxChain))
	}
	s.mu.Unlock()
	s.heightC.Broadcast()
	return h
}

// prune drops the chain entries no live pin can reach (chain[0] is dead
// once chain[1] is visible at the floor) and returns how many it drops.
func (s *Store) prune(v *versions, floor uint64) int {
	n := 0
	for len(v.chain) >= 2 && v.chain[1].height <= floor {
		v.chain = v.chain[1:]
		n++
	}
	s.entries -= n
	return n
}

// sweep walks the fold lists below floor: it prunes each listed chain
// and deletes the keys whose only version lies below the floor — every
// live pin reads that value from the head, so the chain is dead weight.
// It returns the number of folded versions dropped. A deleted chain's
// last entry is not counted: over a chain's life, the one entry beyond
// its folded versions is the pre-image it was seeded with.
func (s *Store) sweep(floor uint64) int {
	gcd := 0
	for len(s.folds) > 0 && s.folds[0].height < floor {
		fl := s.folds[0]
		for _, k := range fl.keys {
			v := s.versions[k]
			if v == nil {
				continue // listed twice in one fold and already swept
			}
			gcd += s.prune(v, floor)
			if len(v.chain) == 1 && v.chain[0].height < floor {
				delete(s.versions, k)
				s.entries--
			}
		}
		s.swept = fl.height
		s.folds[0] = foldList{}
		s.folds = s.folds[1:]
	}
	return gcd
}

// baseValue reads k's current head value (pre-fold) as a Value.
func (s *Store) baseValue(k state.AccessKey) Value {
	var v Value
	switch k.Kind {
	case state.AccessBalance:
		v.Word.Set(s.base.GetBalance(k.Addr))
	case state.AccessNonce:
		v.U64 = s.base.GetNonce(k.Addr)
	case state.AccessCode:
		v.Code = s.base.GetCode(k.Addr)
		v.Hash = s.base.GetCodeHash(k.Addr)
	case state.AccessStorage:
		v.Word = s.base.GetState(k.Addr, k.Slot)
	}
	return v
}

// Snapshot is a read-only view of the store at one height. A bare
// snapshot (SnapshotOf, Store.Head) reads its StateDB directly with no
// locking; a pinned snapshot (Store.Pin) resolves reads through the
// version chains under the store's read lock so it stays consistent
// while later blocks fold in concurrently.
type Snapshot struct {
	store  *Store // nil for bare snapshots
	db     *state.StateDB
	height uint64
	pinned bool

	// sum is the state commitment at height. Store snapshots carry it
	// from construction; a SnapshotOf snapshot hashes its StateDB on
	// first use, once (lazy).
	sum     state.Sum
	lazy    bool
	sumOnce sync.Once
}

// SnapshotOf wraps a plain StateDB as a bare snapshot — the adapter
// one-shot replay paths use to run engines against a frozen genesis
// with zero locking overhead.
func SnapshotOf(db *state.StateDB) *Snapshot { return &Snapshot{db: db, lazy: true} }

// Height returns the store height the snapshot was taken at (0 for
// bare snapshots of a genesis).
func (sn *Snapshot) Height() uint64 { return sn.height }

// DB returns the underlying StateDB. For pinned snapshots this is the
// live head and must not be read directly while commits run; use the
// Reader methods instead.
func (sn *Snapshot) DB() *state.StateDB { return sn.db }

// Close releases a pinned snapshot's pin. Bare snapshots are a no-op.
func (sn *Snapshot) Close() {
	if sn.pinned && sn.store != nil {
		sn.store.unpin(sn.height)
		sn.pinned = false
	}
}

// commitment returns the state commitment as of the snapshot's height.
func (sn *Snapshot) commitment() state.Sum {
	if sn.lazy {
		sn.sumOnce.Do(func() { sn.sum = sn.db.Sum() })
	}
	return sn.sum
}

// Digest digests the snapshot's state as of its height.
func (sn *Snapshot) Digest() types.Hash { return sn.commitment().Digest() }

// DigestWith prices a write-set on top of the snapshot without copying
// it: the snapshot's sum, with the old leaves of o's keys read through
// the snapshot itself. A pinned snapshot therefore prices against its
// own height even after later blocks fold in.
func (sn *Snapshot) DigestWith(o *state.Overrides) types.Hash {
	return sn.commitment().With(sn, o).Digest()
}

// resolve looks k up in the pinned snapshot's version chains; ok is
// false when the key has no chain (never folded, or swept because every
// live pin sees its head value — read the base).
func (sn *Snapshot) resolve(k state.AccessKey) (Value, bool) {
	v := sn.store.versions[k]
	if v == nil {
		return Value{}, false
	}
	ch := v.chain
	// Newest entry at or below the pinned height. Chains are short (they
	// prune to the pin floor), so scan from the tail.
	for i := len(ch) - 1; i >= 0; i-- {
		if ch[i].height <= sn.height {
			return ch[i].val, true
		}
	}
	return Value{}, false
}

// rlock takes the store read lock for a pinned read and bumps the
// snapshot-read counter.
func (sn *Snapshot) rlock() { sn.store.mu.RLock() }

func (sn *Snapshot) runlock() {
	if tel := sn.store.tel; tel != nil {
		tel.MVStateSnapshotReads.Inc()
	}
	sn.store.mu.RUnlock()
}

// Exist implements Reader. Like View, existence is not version-tracked:
// the head answer stands in (every workload account pre-exists in
// genesis, and account creation folds scalar keys that pinned reads do
// resolve exactly).
func (sn *Snapshot) Exist(addr types.Address) bool {
	if sn.store == nil {
		return sn.db.Exist(addr)
	}
	sn.rlock()
	defer sn.runlock()
	return sn.db.Exist(addr)
}

// GetBalance implements Reader.
func (sn *Snapshot) GetBalance(addr types.Address) *uint256.Int {
	if sn.store == nil {
		return sn.db.GetBalance(addr)
	}
	sn.rlock()
	defer sn.runlock()
	if v, ok := sn.resolve(balKey(addr)); ok {
		return v.Word.Clone()
	}
	return sn.db.GetBalance(addr)
}

// GetNonce implements Reader.
func (sn *Snapshot) GetNonce(addr types.Address) uint64 {
	if sn.store == nil {
		return sn.db.GetNonce(addr)
	}
	sn.rlock()
	defer sn.runlock()
	if v, ok := sn.resolve(nonceKey(addr)); ok {
		return v.U64
	}
	return sn.db.GetNonce(addr)
}

// GetCode implements Reader.
func (sn *Snapshot) GetCode(addr types.Address) []byte {
	if sn.store == nil {
		return sn.db.GetCode(addr)
	}
	sn.rlock()
	defer sn.runlock()
	if v, ok := sn.resolve(codeKey(addr)); ok {
		return v.Code
	}
	return sn.db.GetCode(addr)
}

// GetCodeHash implements Reader.
func (sn *Snapshot) GetCodeHash(addr types.Address) types.Hash {
	if sn.store == nil {
		return sn.db.GetCodeHash(addr)
	}
	sn.rlock()
	defer sn.runlock()
	if v, ok := sn.resolve(codeKey(addr)); ok {
		return v.Hash
	}
	return sn.db.GetCodeHash(addr)
}

// GetState implements Reader.
func (sn *Snapshot) GetState(addr types.Address, slot types.Hash) uint256.Int {
	if sn.store == nil {
		return sn.db.GetState(addr, slot)
	}
	sn.rlock()
	defer sn.runlock()
	if v, ok := sn.resolve(storageKey(addr, slot)); ok {
		return v.Word
	}
	return sn.db.GetState(addr, slot)
}

// BuildOverrides converts a block's write-set (plus its aggregate fee)
// into a sparse state.Overrides over head, for digest pricing without
// copying the head. The coinbase balance is read from head and bumped
// by fee — write-sets never contain it (the carve-out), so the merge
// is well-defined.
func BuildOverrides(head Reader, keys []state.AccessKey, vals []Value, coinbase types.Address, fee *uint256.Int) *state.Overrides {
	o := state.NewOverrides()
	for i, k := range keys {
		val := vals[i]
		switch k.Kind {
		case state.AccessBalance:
			o.SetBalance(k.Addr, &val.Word)
		case state.AccessNonce:
			o.SetNonce(k.Addr, val.U64)
		case state.AccessCode:
			o.SetCode(k.Addr, val.Code, val.Hash)
		case state.AccessStorage:
			o.SetState(k.Addr, k.Slot, val.Word)
		}
	}
	if fee != nil && !fee.IsZero() {
		var bal uint256.Int
		bal.Add(head.GetBalance(coinbase), fee)
		o.SetBalance(coinbase, &bal)
	}
	return o
}
