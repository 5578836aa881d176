package state

import (
	"mtpu/internal/keccak"
	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// accountOverride is a sparse per-account patch: only the fields that
// were explicitly set participate; everything else falls through to the
// base account.
type accountOverride struct {
	nonce    *uint64
	balance  *uint256.Int
	code     []byte
	codeHash types.Hash
	hasCode  bool
	// storage maps slot -> value; a zero value means "slot deleted",
	// matching SetState's delete-on-zero convention.
	storage map[types.Hash]uint256.Int
}

// Overrides is a sparse state patch that can be layered over a StateDB
// for digest computation without copying the base. It is how the
// multi-version state layer prices a block's write-set: Sum.With
// subtracts the old leaf and adds the new one for each overridden key,
// giving the digest of folding the writes in without touching the rest
// of the state.
type Overrides struct {
	accounts map[types.Address]*accountOverride
}

// NewOverrides returns an empty override set.
func NewOverrides() *Overrides {
	return &Overrides{accounts: make(map[types.Address]*accountOverride)}
}

// Len returns the number of overridden accounts.
func (o *Overrides) Len() int { return len(o.accounts) }

func (o *Overrides) acct(addr types.Address) *accountOverride {
	ov := o.accounts[addr]
	if ov == nil {
		ov = &accountOverride{}
		o.accounts[addr] = ov
	}
	return ov
}

// SetBalance overrides addr's balance.
func (o *Overrides) SetBalance(addr types.Address, v *uint256.Int) {
	o.acct(addr).balance = new(uint256.Int).Set(v)
}

// SetNonce overrides addr's nonce.
func (o *Overrides) SetNonce(addr types.Address, n uint64) {
	ov := o.acct(addr)
	ov.nonce = new(uint64)
	*ov.nonce = n
}

// SetCode overrides addr's code. The caller may pass the known keccak
// hash to avoid recomputation; a zero hash with non-empty code is
// recomputed here.
func (o *Overrides) SetCode(addr types.Address, code []byte, hash types.Hash) {
	ov := o.acct(addr)
	ov.code = code
	if hash == (types.Hash{}) && len(code) > 0 {
		hash = types.Hash(keccak.Sum256(code))
	}
	ov.codeHash = hash
	ov.hasCode = true
}

// SetState overrides one storage slot (zero value deletes the slot,
// matching StateDB.SetState).
func (o *Overrides) SetState(addr types.Address, slot types.Hash, v uint256.Int) {
	ov := o.acct(addr)
	if ov.storage == nil {
		ov.storage = make(map[types.Hash]uint256.Int)
	}
	ov.storage[slot] = v
}

// DigestWith returns the digest of the state that would result from
// applying o on top of s, without mutating or copying s:
// DigestWith(o) == apply(o).Digest() for every override set. It hashes
// s from scratch once and prices o's keys on top (Sum.With); callers
// that keep a running sum price against it directly instead. A nil o
// degenerates to Digest. The receiver is only read.
func (s *StateDB) DigestWith(o *Overrides) types.Hash {
	return s.Sum().With(s, o).Digest()
}
