package keccak

import (
	"bytes"
	"encoding/hex"
	"testing"
)

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Known Keccak-256 (legacy padding) vectors.
var vectors = []struct {
	in   string
	want string
}{
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	{"The quick brown fox jumps over the lazy dog",
		"4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
}

func TestVectors(t *testing.T) {
	for _, v := range vectors {
		got := Sum256([]byte(v.in))
		if !bytes.Equal(got[:], mustHex(v.want)) {
			t.Errorf("Sum256(%q) = %x, want %s", v.in, got, v.want)
		}
	}
}

func TestSelectors(t *testing.T) {
	// Canonical Solidity selectors — strong end-to-end checks of the
	// permutation, absorb and padding logic.
	cases := []struct {
		sig  string
		want string
	}{
		{"transfer(address,uint256)", "a9059cbb"},
		{"balanceOf(address)", "70a08231"},
		{"approve(address,uint256)", "095ea7b3"},
		{"transferFrom(address,address,uint256)", "23b872dd"},
		{"totalSupply()", "18160ddd"},
		{"deposit()", "d0e30db0"},
		{"withdraw(uint256)", "2e1a7d4d"},
	}
	for _, c := range cases {
		got := Selector(c.sig)
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("Selector(%q) = %x, want %s", c.sig, got, c.want)
		}
	}
}

func TestIncrementalMatchesOneShot(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	want := Sum256(data)

	// Write in awkward chunk sizes crossing the 136-byte rate boundary.
	for _, chunk := range []int{1, 7, 135, 136, 137, 300} {
		var h Hasher
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			h.Write(data[off:end])
		}
		if got := h.Sum256(); got != want {
			t.Errorf("chunk %d: digest mismatch", chunk)
		}
	}
}

func TestSumDoesNotConsumeState(t *testing.T) {
	var h Hasher
	h.Write([]byte("hello "))
	first := h.Sum256()
	second := h.Sum256()
	if first != second {
		t.Fatal("Sum256 mutated the hasher")
	}
	h.Write([]byte("world"))
	if h.Sum256() != Sum256([]byte("hello world")) {
		t.Fatal("writes after Sum256 diverge from one-shot")
	}
}

func TestReset(t *testing.T) {
	var h Hasher
	h.Write([]byte("garbage"))
	h.Reset()
	h.Write([]byte("abc"))
	want := Sum256([]byte("abc"))
	if h.Sum256() != want {
		t.Fatal("Reset did not clear state")
	}
}

func TestExactRateBlock(t *testing.T) {
	// Exactly one rate block exercises the absorb-then-pad-empty path.
	data := bytes.Repeat([]byte{0x61}, 136)
	var h Hasher
	h.Write(data)
	if h.Sum256() != Sum256(data) {
		t.Fatal("rate-sized write mismatch")
	}
	// 136 'a' bytes hashed both ways must agree with incremental halves.
	var h2 Hasher
	h2.Write(data[:68])
	h2.Write(data[68:])
	if h2.Sum256() != Sum256(data) {
		t.Fatal("split rate-sized write mismatch")
	}
}

func BenchmarkSum256_32(b *testing.B) {
	data := make([]byte, 32)
	b.SetBytes(32)
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}

func BenchmarkSum256_1K(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}

// TestWide pins Wide's contract: deterministic, input-sensitive,
// distinct from Sum256 of the same bytes, and panicking on inputs that
// do not fit in one rate block.
func TestWide(t *testing.T) {
	a, b := Wide([]byte("leaf")), Wide([]byte("leaf"))
	if a != b {
		t.Fatal("Wide is not deterministic")
	}
	if Wide([]byte("leag")) == a || Wide(nil) == a {
		t.Fatal("Wide ignores its input")
	}
	sum := Sum256([]byte("leaf"))
	if leUint64(sum[:]) == a[0] {
		t.Fatal("Wide shares Sum256's domain")
	}
	if Wide(make([]byte, rate-1)) == Wide(make([]byte, rate-2)) {
		t.Fatal("Wide does not separate inputs by length")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Wide accepted an input of a full rate block")
		}
	}()
	Wide(make([]byte, rate))
}
