package state

import (
	"math/rand"
	"testing"

	"mtpu/internal/types"
	"mtpu/internal/uint256"
)

// countingReader counts the reads Sum.With makes of its base.
type countingReader struct {
	r     Reader
	reads int
}

func (c *countingReader) GetBalance(a types.Address) *uint256.Int {
	c.reads++
	return c.r.GetBalance(a)
}
func (c *countingReader) GetNonce(a types.Address) uint64 { c.reads++; return c.r.GetNonce(a) }
func (c *countingReader) GetCodeHash(a types.Address) types.Hash {
	c.reads++
	return c.r.GetCodeHash(a)
}
func (c *countingReader) GetState(a types.Address, s types.Hash) uint256.Int {
	c.reads++
	return c.r.GetState(a, s)
}

// TestSumWithIsIncremental chains random override sets on a running
// sum and checks, after every step, that it equals the from-scratch
// Sum of the applied state, while reading only the overridden keys:
// three scalar reads per account with a scalar override, one per
// overridden slot — never the rest of the state.
func TestSumWithIsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	st := New()
	for i := 0; i < 200; i++ {
		addr := types.Address{19: byte(i)}
		st.SetBalance(addr, uint256.NewInt(uint64(i+1)))
		st.SetState(addr, types.Hash{31: byte(i)}, *uint256.NewInt(uint64(i)))
	}
	st.DiscardJournal()
	sum := st.Sum()
	for step := 0; step < 50; step++ {
		pre := st.Copy()
		o := NewOverrides()
		want := 0
		scalarAccts := map[types.Address]bool{}
		for k := 0; k < 6; k++ {
			addr := types.Address{19: byte(rng.Intn(220))}
			slot := types.Hash{31: byte(rng.Intn(4))}
			v := uint256.NewInt(uint64(rng.Intn(3)))
			switch rng.Intn(4) {
			case 0:
				o.SetBalance(addr, v)
				st.SetBalance(addr, v)
				scalarAccts[addr] = true
			case 1:
				o.SetNonce(addr, v.Uint64())
				st.SetNonce(addr, v.Uint64())
				scalarAccts[addr] = true
			case 2:
				code := []byte{byte(rng.Intn(2))}[:rng.Intn(2)]
				o.SetCode(addr, code, types.Hash{})
				st.SetCode(addr, code)
				scalarAccts[addr] = true
			default:
				if _, dup := o.acct(addr).storage[slot]; !dup {
					want++
				}
				o.SetState(addr, slot, *v)
				st.SetState(addr, slot, *v)
			}
		}
		want += 3 * len(scalarAccts)
		st.DiscardJournal()
		cr := &countingReader{r: pre}
		sum = sum.With(cr, o)
		if sum != st.Sum() {
			t.Fatalf("step %d: incremental sum diverged from the from-scratch sum", step)
		}
		if cr.reads != want {
			t.Fatalf("step %d: With made %d reads, want %d (only the overridden keys)", step, cr.reads, want)
		}
	}
}
