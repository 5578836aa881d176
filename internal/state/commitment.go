package state

import (
	"mtpu/internal/keccak"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// Sum is the additive multiset hash of a state (Bellare–Micciancio,
// "A New Paradigm for Collision-free Hashing", in its wide-lane LtHash
// form): the lane-wise sum mod 2^64 of one keccak.Wide leaf per
// non-empty account's scalar fields and one per non-zero storage slot.
// Addition commutes, so the sum needs no key order, and changing one
// key costs one leaf subtracted and one added, not a rehash of the
// state. The digest is keccak-256 of the sum. It is an internal
// equivalence anchor between execution paths, not a consensus root.
type Sum [keccak.WideLanes]uint64

// Leaf tags keep account and slot leaves in separate domains.
const (
	accountLeafTag = 'a'
	slotLeafTag    = 's'
)

func (s *Sum) add(l [keccak.WideLanes]uint64) {
	for i := range s {
		s[i] += l[i]
	}
}

func (s *Sum) sub(l [keccak.WideLanes]uint64) {
	for i := range s {
		s[i] -= l[i]
	}
}

// Digest returns keccak-256 of the sum's lanes, little-endian.
func (s Sum) Digest() types.Hash {
	var buf [8 * keccak.WideLanes]byte
	for i, l := range s {
		for j := 0; j < 8; j++ {
			buf[8*i+j] = byte(l >> (8 * j))
		}
	}
	return types.Hash(keccak.Sum256(buf[:]))
}

// scalars is the account leaf's content. The zero value is the empty
// account, which contributes no leaf.
type scalars struct {
	nonce    uint64
	balance  uint256.Int
	codeHash types.Hash
}

func (a *scalars) empty() bool {
	return a.nonce == 0 && a.balance.IsZero() && a.codeHash == (types.Hash{})
}

// accountLeaf hashes (tag, addr, nonce, balance, codeHash).
func accountLeaf(addr types.Address, a *scalars) [keccak.WideLanes]uint64 {
	var buf [1 + 20 + 8 + 32 + 32]byte
	buf[0] = accountLeafTag
	copy(buf[1:21], addr[:])
	for i := 0; i < 8; i++ {
		buf[21+i] = byte(a.nonce >> (56 - 8*i))
	}
	b := a.balance.Bytes32()
	copy(buf[29:61], b[:])
	copy(buf[61:], a.codeHash[:])
	return keccak.Wide(buf[:])
}

// slotLeaf hashes (tag, addr, slot, value).
func slotLeaf(addr types.Address, slot types.Hash, v *uint256.Int) [keccak.WideLanes]uint64 {
	var buf [1 + 20 + 32 + 32]byte
	buf[0] = slotLeafTag
	copy(buf[1:21], addr[:])
	copy(buf[21:53], slot[:])
	vb := v.Bytes32()
	copy(buf[53:], vb[:])
	return keccak.Wide(buf[:])
}

// Reader is the read surface Sum.With prices old leaves through.
type Reader interface {
	GetBalance(types.Address) *uint256.Int
	GetNonce(types.Address) uint64
	GetCodeHash(types.Address) types.Hash
	GetState(types.Address, types.Hash) uint256.Int
}

var _ Reader = (*StateDB)(nil)

// Sum hashes the whole state from scratch: the oracle the incremental
// sums are checked against.
func (s *StateDB) Sum() Sum {
	var sum Sum
	for addr, acc := range s.accounts {
		a := scalars{nonce: acc.Nonce, balance: acc.Balance, codeHash: acc.CodeHash}
		if !a.empty() {
			sum.add(accountLeaf(addr, &a))
		}
		for slot, v := range acc.Storage {
			sum.add(slotLeaf(addr, slot, &v))
		}
	}
	return sum
}

// With returns the sum of the state r reads, with o applied on top,
// given that s is the sum of r's state: every leaf o changes is
// subtracted at its old value, read through r, and added at its new
// one. Only the keys in o are read or hashed. It is the one delta path:
// pricing a write-set and folding it into a running sum both use it.
func (s Sum) With(r Reader, o *Overrides) Sum {
	if o == nil {
		return s
	}
	for addr, ov := range o.accounts {
		if ov.nonce != nil || ov.balance != nil || ov.hasCode {
			old := scalars{nonce: r.GetNonce(addr), codeHash: r.GetCodeHash(addr)}
			old.balance.Set(r.GetBalance(addr))
			cur := old
			if ov.nonce != nil {
				cur.nonce = *ov.nonce
			}
			if ov.balance != nil {
				cur.balance = *ov.balance
			}
			if ov.hasCode {
				cur.codeHash = ov.codeHash
			}
			if cur != old {
				if !old.empty() {
					s.sub(accountLeaf(addr, &old))
				}
				if !cur.empty() {
					s.add(accountLeaf(addr, &cur))
				}
			}
		}
		for slot, v := range ov.storage {
			old := r.GetState(addr, slot)
			if v == old {
				continue
			}
			if !old.IsZero() {
				s.sub(slotLeaf(addr, slot, &old))
			}
			if !v.IsZero() {
				s.add(slotLeaf(addr, slot, &v))
			}
		}
	}
	return s
}
