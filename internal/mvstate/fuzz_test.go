package mvstate

import (
	"testing"

	"mtpu/internal/keccak"
	"mtpu/internal/state"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// oracleEntry mirrors one multi-version write in the naive reference
// implementation.
type oracleEntry struct {
	tx          int
	incarnation int
	estimate    bool
	val         uint64
}

// oracle is a linear-scan reference for MVMemory: an unsorted list of
// writes per key, resolved by max-scan.
type oracle map[state.AccessKey][]oracleEntry

func (o oracle) read(k state.AccessKey, tx int) ReadResult {
	best := -1
	var bestE oracleEntry
	for _, e := range o[k] {
		if e.tx < tx && e.tx > best {
			best = e.tx
			bestE = e
		}
	}
	if best < 0 {
		return ReadResult{Status: ReadBase, Ver: Version{Tx: BaseVersion}}
	}
	r := ReadResult{Ver: Version{Tx: bestE.tx, Incarnation: bestE.incarnation}}
	if bestE.estimate {
		r.Status = ReadEstimate
	} else {
		r.Status = ReadValue
		r.Val.Word.SetUint64(bestE.val)
	}
	return r
}

func (o oracle) write(k state.AccessKey, tx, inc int, val uint64) {
	for i, e := range o[k] {
		if e.tx == tx {
			o[k][i] = oracleEntry{tx: tx, incarnation: inc, val: val}
			return
		}
	}
	o[k] = append(o[k], oracleEntry{tx: tx, incarnation: inc, val: val})
}

func (o oracle) markEstimate(k state.AccessKey, tx int) {
	for i, e := range o[k] {
		if e.tx == tx {
			o[k][i].estimate = true
		}
	}
}

func (o oracle) remove(k state.AccessKey, tx int) {
	es := o[k]
	for i, e := range es {
		if e.tx == tx {
			o[k] = append(es[:i], es[i+1:]...)
			return
		}
	}
}

// FuzzMVMemory drives random read/write/mark-estimate/remove
// interleavings against the sequential oracle. Each operation consumes 4
// fuzz bytes: opcode, key selector, transaction index, value.
func FuzzMVMemory(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{1, 0, 5, 9, 0, 0, 6, 0, 2, 0, 5, 0})
	f.Add([]byte{1, 2, 3, 4, 2, 2, 3, 0, 0, 2, 7, 0, 3, 2, 3, 0, 0, 2, 7, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		mv := NewMVMemory()
		o := make(oracle)
		keys := [4]state.AccessKey{
			{Kind: state.AccessBalance, Addr: types.Address{19: 1}},
			{Kind: state.AccessNonce, Addr: types.Address{19: 1}},
			{Kind: state.AccessStorage, Addr: types.Address{19: 2}, Slot: types.Hash{31: 1}},
			{Kind: state.AccessStorage, Addr: types.Address{19: 2}, Slot: types.Hash{31: 2}},
		}
		for i := 0; i+4 <= len(data) && i < 4*256; i += 4 {
			op, k, tx, v := data[i]%4, keys[data[i+1]%4], int(data[i+2]%32), uint64(data[i+3])
			switch op {
			case 0:
				got := mv.Read(k, tx)
				want := o.read(k, tx)
				if got.Status != want.Status || got.Ver != want.Ver || !got.Val.Word.Eq(&want.Val.Word) {
					t.Fatalf("op %d: Read(%v, %d) = %+v, oracle %+v", i/4, k, tx, got, want)
				}
			case 1:
				inc := int(v % 4)
				var val Value
				val.Word.SetUint64(v)
				mv.Write(k, tx, inc, val)
				o.write(k, tx, inc, v)
			case 2:
				mv.MarkEstimate(k, tx)
				o.markEstimate(k, tx)
			case 3:
				mv.Remove(k, tx)
				o.remove(k, tx)
			}
		}
		// Sweep every (key, reader) pair for a final full comparison.
		for _, k := range keys {
			for tx := 0; tx <= 32; tx++ {
				got, want := mv.Read(k, tx), o.read(k, tx)
				if got.Status != want.Status || got.Ver != want.Ver || !got.Val.Word.Eq(&want.Val.Word) {
					t.Fatalf("final sweep: Read(%v, %d) = %+v, oracle %+v", k, tx, got, want)
				}
			}
		}
	})
}

// FuzzStoreCommitment drives random folds, pins and unpins through a
// Store next to a materialised oracle: a plain StateDB the same writes
// are applied to, copied at every pin. Each operation consumes 3 fuzz
// bytes: opcode, key selector, value. A zero value writes zero, which
// deletes a slot or empties an account field. After every fold the
// running HeadDigest must equal the head hashed from scratch and the
// oracle's digest, and every live pin must read and price (DigestWith
// the block just folded) exactly as its materialised copy does.
func FuzzStoreCommitment(f *testing.F) {
	f.Add([]byte{0, 1, 5, 4, 0, 2, 5, 0, 0, 1, 2, 9, 4, 0, 0})
	f.Add([]byte{5, 0, 0, 3, 6, 0, 4, 0, 1, 3, 6, 0, 4, 0, 0, 6, 0, 0, 4, 0, 0})
	f.Add([]byte{2, 7, 1, 4, 0, 3, 5, 0, 0, 2, 7, 0, 0, 7, 0, 4, 0, 0, 6, 0, 0, 4, 0, 0})

	coinbase := types.Address{19: 0xfe}
	keys := [8]state.AccessKey{
		balKey(types.Address{19: 1}),
		nonceKey(types.Address{19: 1}),
		codeKey(types.Address{19: 2}),
		balKey(types.Address{19: 3}),
		storageKey(types.Address{19: 2}, types.Hash{31: 1}),
		storageKey(types.Address{19: 2}, types.Hash{31: 2}),
		storageKey(types.Address{19: 3}, types.Hash{31: 1}),
		storageKey(types.Address{19: 5}, types.Hash{31: 1}),
	}
	type livePin struct {
		snap *Snapshot
		db   *state.StateDB
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		genesis := storeGenesis()
		genesis.SetState(types.Address{19: 2}, types.Hash{31: 1}, *uint256.NewInt(4))
		genesis.DiscardJournal()
		st := NewStore(genesis, nil)
		seq := genesis.Copy()
		var pins []livePin
		var wk []state.AccessKey
		var wv []Value

		for i := 0; i+3 <= len(data) && i < 3*256; i += 3 {
			op, sel, v := data[i]%8, int(data[i+1]), uint64(data[i+2]%4)
			switch {
			case op <= 3: // buffer one write of the next block
				k := keys[sel%len(keys)]
				var val Value
				switch k.Kind {
				case state.AccessNonce:
					val.U64 = v
				case state.AccessCode:
					if v != 0 {
						val.Code = []byte{byte(v)}
						val.Hash = types.Hash(keccak.Sum256(val.Code))
					}
				default:
					val.Word.SetUint64(v)
				}
				wk, wv = append(wk, k), append(wv, val)
			case op == 4: // fold the buffered block
				fee := uint256.NewInt(v)
				st.Commit(wk, wv, coinbase, fee)
				for _, p := range pins {
					o := BuildOverrides(p.snap, wk, wv, coinbase, fee)
					want := p.db.Copy()
					applyWrites(want, wk, wv, coinbase, fee)
					if got := p.snap.DigestWith(o); got != want.Digest() {
						t.Fatalf("op %d: pin at %d prices %s, materialised %s", i/3, p.snap.Height(), got, want.Digest())
					}
					for _, k := range keys {
						if got, want := p.snap.GetBalance(k.Addr), p.db.GetBalance(k.Addr); !got.Eq(want) {
							t.Fatalf("op %d: pin at %d reads balance %v, materialised %v", i/3, p.snap.Height(), got, want)
						}
						if got, want := p.snap.GetState(k.Addr, k.Slot), p.db.GetState(k.Addr, k.Slot); got != want {
							t.Fatalf("op %d: pin at %d reads slot %v, materialised %v", i/3, p.snap.Height(), got, want)
						}
					}
				}
				applyWrites(seq, wk, wv, coinbase, fee)
				wk, wv = nil, nil
				head := st.HeadDigest()
				if full := st.HeadDB().Digest(); head != full {
					t.Fatalf("op %d: running head digest %s != recomputed %s", i/3, head, full)
				}
				if head != seq.Digest() {
					t.Fatalf("op %d: head digest %s != sequential oracle %s", i/3, head, seq.Digest())
				}
			case op <= 6: // pin the head
				pins = append(pins, livePin{snap: st.Pin(), db: seq.Copy()})
			default: // release one pin
				if len(pins) > 0 {
					j := sel % len(pins)
					pins[j].snap.Close()
					pins = append(pins[:j], pins[j+1:]...)
				}
			}
		}
		for _, p := range pins {
			p.snap.Close()
		}
	})
}
