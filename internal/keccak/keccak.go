// Package keccak implements the legacy Keccak-256 hash used by Ethereum
// (pre-FIPS 202 padding byte 0x01, not the standardized SHA3-256 0x06).
// It backs the EVM SHA3 opcode, function-selector derivation, storage-map
// key computation and code hashing throughout the repository.
package keccak

import "math/bits"

// roundConstants are the 24 iota-step round constants of Keccak-f[1600].
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a,
	0x8000000080008000, 0x000000000000808b, 0x0000000080000001,
	0x8000000080008081, 0x8000000000008009, 0x000000000000008a,
	0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089,
	0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
	0x000000000000800a, 0x800000008000000a, 0x8000000080008081,
	0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// keccakF1600 applies the 24-round Keccak permutation to the state in place.
// The state is indexed a[x + 5*y]. The 5x5 step structure is unrolled over
// named locals so every lane lives in a register across the round: the
// rolled form spends most of its time on modulo index arithmetic,
// rotation-offset table loads and bounds checks, and this permutation is
// the single hottest function of the whole simulator (digests, storage-map
// keys, selectors, SHA3 opcodes).
func keccakF1600(a *[25]uint64) {
	v0, v1, v2, v3, v4 := a[0], a[1], a[2], a[3], a[4]
	v5, v6, v7, v8, v9 := a[5], a[6], a[7], a[8], a[9]
	v10, v11, v12, v13, v14 := a[10], a[11], a[12], a[13], a[14]
	v15, v16, v17, v18, v19 := a[15], a[16], a[17], a[18], a[19]
	v20, v21, v22, v23, v24 := a[20], a[21], a[22], a[23], a[24]

	for round := 0; round < 24; round++ {
		// Theta.
		c0 := v0 ^ v5 ^ v10 ^ v15 ^ v20
		c1 := v1 ^ v6 ^ v11 ^ v16 ^ v21
		c2 := v2 ^ v7 ^ v12 ^ v17 ^ v22
		c3 := v3 ^ v8 ^ v13 ^ v18 ^ v23
		c4 := v4 ^ v9 ^ v14 ^ v19 ^ v24
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)
		v0 ^= d0
		v5 ^= d0
		v10 ^= d0
		v15 ^= d0
		v20 ^= d0
		v1 ^= d1
		v6 ^= d1
		v11 ^= d1
		v16 ^= d1
		v21 ^= d1
		v2 ^= d2
		v7 ^= d2
		v12 ^= d2
		v17 ^= d2
		v22 ^= d2
		v3 ^= d3
		v8 ^= d3
		v13 ^= d3
		v18 ^= d3
		v23 ^= d3
		v4 ^= d4
		v9 ^= d4
		v14 ^= d4
		v19 ^= d4
		v24 ^= d4

		// Rho and Pi: b[y + 5*((2x+3y)%5)] = rotl(a[x+5y], offset[x][y]).
		b0 := v0
		b16 := bits.RotateLeft64(v5, 36)
		b7 := bits.RotateLeft64(v10, 3)
		b23 := bits.RotateLeft64(v15, 41)
		b14 := bits.RotateLeft64(v20, 18)
		b10 := bits.RotateLeft64(v1, 1)
		b1 := bits.RotateLeft64(v6, 44)
		b17 := bits.RotateLeft64(v11, 10)
		b8 := bits.RotateLeft64(v16, 45)
		b24 := bits.RotateLeft64(v21, 2)
		b20 := bits.RotateLeft64(v2, 62)
		b11 := bits.RotateLeft64(v7, 6)
		b2 := bits.RotateLeft64(v12, 43)
		b18 := bits.RotateLeft64(v17, 15)
		b9 := bits.RotateLeft64(v22, 61)
		b5 := bits.RotateLeft64(v3, 28)
		b21 := bits.RotateLeft64(v8, 55)
		b12 := bits.RotateLeft64(v13, 25)
		b3 := bits.RotateLeft64(v18, 21)
		b19 := bits.RotateLeft64(v23, 56)
		b15 := bits.RotateLeft64(v4, 27)
		b6 := bits.RotateLeft64(v9, 20)
		b22 := bits.RotateLeft64(v14, 39)
		b13 := bits.RotateLeft64(v19, 8)
		b4 := bits.RotateLeft64(v24, 14)

		// Chi, with Iota folded into lane 0.
		v0 = b0 ^ (^b1 & b2) ^ roundConstants[round]
		v1 = b1 ^ (^b2 & b3)
		v2 = b2 ^ (^b3 & b4)
		v3 = b3 ^ (^b4 & b0)
		v4 = b4 ^ (^b0 & b1)
		v5 = b5 ^ (^b6 & b7)
		v6 = b6 ^ (^b7 & b8)
		v7 = b7 ^ (^b8 & b9)
		v8 = b8 ^ (^b9 & b5)
		v9 = b9 ^ (^b5 & b6)
		v10 = b10 ^ (^b11 & b12)
		v11 = b11 ^ (^b12 & b13)
		v12 = b12 ^ (^b13 & b14)
		v13 = b13 ^ (^b14 & b10)
		v14 = b14 ^ (^b10 & b11)
		v15 = b15 ^ (^b16 & b17)
		v16 = b16 ^ (^b17 & b18)
		v17 = b17 ^ (^b18 & b19)
		v18 = b18 ^ (^b19 & b15)
		v19 = b19 ^ (^b15 & b16)
		v20 = b20 ^ (^b21 & b22)
		v21 = b21 ^ (^b22 & b23)
		v22 = b22 ^ (^b23 & b24)
		v23 = b23 ^ (^b24 & b20)
		v24 = b24 ^ (^b20 & b21)
	}

	a[0], a[1], a[2], a[3], a[4] = v0, v1, v2, v3, v4
	a[5], a[6], a[7], a[8], a[9] = v5, v6, v7, v8, v9
	a[10], a[11], a[12], a[13], a[14] = v10, v11, v12, v13, v14
	a[15], a[16], a[17], a[18], a[19] = v15, v16, v17, v18, v19
	a[20], a[21], a[22], a[23], a[24] = v20, v21, v22, v23, v24
}

// rate is the sponge rate in bytes for Keccak-256 (1600 - 2*256 bits).
const rate = 136

// Hasher is an incremental Keccak-256 hasher. The zero value is ready to
// use. It implements the write/sum pattern of hash.Hash without the
// interface dependency.
type Hasher struct {
	state  [25]uint64
	buf    [rate]byte
	bufLen int
}

// Reset returns the hasher to its initial state.
func (h *Hasher) Reset() {
	h.state = [25]uint64{}
	h.bufLen = 0
}

// Write absorbs p into the sponge. It never fails.
func (h *Hasher) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		space := rate - h.bufLen
		if space > len(p) {
			space = len(p)
		}
		copy(h.buf[h.bufLen:], p[:space])
		h.bufLen += space
		p = p[space:]
		if h.bufLen == rate {
			h.absorb()
		}
	}
	return n, nil
}

func (h *Hasher) absorb() {
	for i := 0; i < rate/8; i++ {
		h.state[i] ^= leUint64(h.buf[i*8:])
	}
	keccakF1600(&h.state)
	h.bufLen = 0
}

// Sum256 returns the 32-byte digest of everything written so far. It does
// not modify the hasher state, so more data may be written afterwards.
func (h *Hasher) Sum256() [32]byte {
	// Work on copies so the caller can continue writing.
	state := h.state
	var block [rate]byte
	copy(block[:], h.buf[:h.bufLen])
	block[h.bufLen] = 0x01 // legacy Keccak domain/padding byte
	block[rate-1] |= 0x80
	for i := 0; i < rate/8; i++ {
		state[i] ^= leUint64(block[i*8:])
	}
	keccakF1600(&state)

	var out [32]byte
	for i := 0; i < 4; i++ {
		putLeUint64(out[i*8:], state[i])
	}
	return out
}

func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeUint64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// Sum256 returns the Keccak-256 digest of data.
func Sum256(data []byte) [32]byte {
	var h Hasher
	h.Write(data)
	return h.Sum256()
}

// Selector returns the 4-byte Solidity function selector for a signature
// such as "transfer(address,uint256)".
func Selector(signature string) [4]byte {
	d := Sum256([]byte(signature))
	var s [4]byte
	copy(s[:], d[:4])
	return s
}

// WideLanes is the number of 64-bit lanes Wide returns: 1024 bits.
const WideLanes = 16

// wideDomain is Wide's domain-separation byte. It differs from the
// legacy Keccak padding byte (0x01) and from the FIPS 202 SHA-3 (0x06)
// and SHAKE (0x1F) suffixes, so a Wide output never coincides with any
// of those hashes of the same input.
const wideDomain = 0x0B

// Wide expands data to 1024 pseudorandom bits with a single Keccak-f
// permutation: data is padded into one rate block under Wide's own
// domain byte, permuted once, and the first WideLanes lanes are
// squeezed. It is the leaf function of the additive state commitment:
// every leaf needs its own permutation, and one is the least a leaf
// can cost, so hashing a whole state from scratch stays within about
// 1.5× of streaming the same bytes through Sum256. data must be
// shorter than the 136-byte rate.
func Wide(data []byte) [WideLanes]uint64 {
	if len(data) >= rate {
		panic("keccak: Wide input does not fit in one rate block")
	}
	var block [rate]byte
	copy(block[:], data)
	block[len(data)] = wideDomain
	block[rate-1] |= 0x80
	var a [25]uint64
	for i := 0; i < rate/8; i++ {
		a[i] = leUint64(block[i*8:])
	}
	keccakF1600(&a)
	var out [WideLanes]uint64
	copy(out[:], a[:WideLanes])
	return out
}
