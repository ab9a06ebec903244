package cme

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
)

// MACSize is the size in bytes of a truncated MAC (8 bytes, as in the
// paper's per-block MAC layout: eight MACs coalesce into one 64-byte block).
const MACSize = 8

// MAC is a truncated keyed MAC value.
type MAC [MACSize]byte

// Engine holds the on-chip secret keys and performs functional encryption
// and MAC computation. One engine corresponds to one processor's secure
// memory unit; keys never leave the trusted compute base.
//
// OTP reuses per-engine scratch buffers (see below), so one Engine must
// only ever be driven from one goroutine at a time; concurrent simulations
// each build their own.
type Engine struct {
	block  cipher.Block
	macKey [32]byte

	// otpPad and otpPT are reusable scratch for OTP. Stack-local buffers
	// would escape to the heap through the cipher.Block interface call
	// (the compiler cannot prove Encrypt does not retain its slices),
	// costing two allocations per encrypted block on the drain hot path.
	otpPad [64]byte
	otpPT  [16]byte
}

// NewEngine derives the AES and MAC keys deterministically from a seed so
// that simulations are reproducible. A real system would use fused or
// hardware-generated keys.
func NewEngine(seed uint64) *Engine {
	var material [8]byte
	binary.LittleEndian.PutUint64(material[:], seed)
	aesKey := sha256.Sum256(append([]byte("horus-aes-key"), material[:]...))
	macKey := sha256.Sum256(append([]byte("horus-mac-key"), material[:]...))
	blk, err := aes.NewCipher(aesKey[:16])
	if err != nil {
		panic("cme: aes.NewCipher failed: " + err.Error())
	}
	return &Engine{block: blk, macKey: macKey}
}

// OTP generates the 64-byte one-time pad for (addr, counter): four AES
// blocks of E_K(addr || counter || i). Temporal uniqueness comes from the
// counter, spatial uniqueness from the address (§II-B, Fig. 2).
func (e *Engine) OTP(addr, counter uint64) [64]byte {
	binary.LittleEndian.PutUint64(e.otpPT[0:8], addr)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(e.otpPT[8:16], counter<<2|uint64(i))
		e.block.Encrypt(e.otpPad[i*16:(i+1)*16], e.otpPT[:])
	}
	return e.otpPad
}

// Encrypt XORs the plaintext block with the OTP for (addr, counter).
// Decryption is the same operation.
func (e *Engine) Encrypt(addr, counter uint64, plain [64]byte) [64]byte {
	pad := e.OTP(addr, counter)
	var ct [64]byte
	for i := range plain {
		ct[i] = plain[i] ^ pad[i]
	}
	return ct
}

// Decrypt recovers the plaintext from a ciphertext block (XOR with the same
// pad).
func (e *Engine) Decrypt(addr, counter uint64, ct [64]byte) [64]byte {
	return e.Encrypt(addr, counter, ct)
}

// DataMAC computes the MAC protecting one memory block: keyed hash over the
// address, the encryption counter, and the ciphertext (§II-B: "MACs
// calculated over the ciphertext, counter and address").
//
// The message key || addr || counter || ct is assembled in a stack buffer
// and hashed with one-shot sha256.Sum256: the digest is identical to the
// streaming construction but the hot drain path allocates nothing.
func (e *Engine) DataMAC(addr, counter uint64, ct [64]byte) MAC {
	var buf [112]byte // 32 key + 16 header + 64 content
	copy(buf[0:32], e.macKey[:])
	binary.LittleEndian.PutUint64(buf[32:40], addr)
	binary.LittleEndian.PutUint64(buf[40:48], counter)
	copy(buf[48:112], ct[:])
	sum := sha256.Sum256(buf[:])
	var m MAC
	copy(m[:], sum[:MACSize])
	return m
}

// NodeMAC computes the MAC of an integrity-tree child node: keyed hash over
// the tree level, the node index within the level, and the node content.
// Binding (level, index) prevents splicing initialised nodes across
// positions in the tree.
func (e *Engine) NodeMAC(level int, index uint64, content [64]byte) MAC {
	var buf [112]byte // 32 key + 16 header + 64 content
	copy(buf[0:32], e.macKey[:])
	binary.LittleEndian.PutUint64(buf[32:40], uint64(level))
	binary.LittleEndian.PutUint64(buf[40:48], index)
	copy(buf[48:112], content[:])
	sum := sha256.Sum256(buf[:])
	var m MAC
	copy(m[:], sum[:MACSize])
	return m
}

// MACOverMACs computes a second-level MAC over a group of MACs, used by the
// Horus Double-Level MAC scheme (Fig. 10) and by the small tree protecting
// the metadata-cache vault.
func (e *Engine) MACOverMACs(tag uint64, macs []MAC) MAC {
	if len(macs) <= 8 {
		// Common case (one MAC block's worth): assemble on the stack.
		var buf [104]byte // 32 key + 8 tag + 8*8 MACs
		copy(buf[0:32], e.macKey[:])
		binary.LittleEndian.PutUint64(buf[32:40], tag)
		n := 40
		for i := range macs {
			copy(buf[n:n+MACSize], macs[i][:])
			n += MACSize
		}
		sum := sha256.Sum256(buf[:n])
		var out MAC
		copy(out[:], sum[:MACSize])
		return out
	}
	h := sha256.New()
	h.Write(e.macKey[:])
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], tag)
	h.Write(hdr[:])
	for i := range macs {
		h.Write(macs[i][:])
	}
	var out MAC
	copy(out[:], h.Sum(nil)[:MACSize])
	return out
}

// PackMACs packs up to 8 MACs into one 64-byte memory block.
func PackMACs(macs []MAC) [64]byte {
	if len(macs) > 8 {
		panic("cme: at most 8 MACs fit in a block")
	}
	var b [64]byte
	for i, m := range macs {
		copy(b[i*MACSize:(i+1)*MACSize], m[:])
	}
	return b
}

// UnpackMACs splits a 64-byte block into its 8 MAC slots.
func UnpackMACs(b [64]byte) [8]MAC {
	var out [8]MAC
	for i := 0; i < 8; i++ {
		copy(out[i][:], b[i*MACSize:(i+1)*MACSize])
	}
	return out
}

// MACSlot returns the MAC-block slot (0..7) of the data block at addr,
// given eight 8-byte MACs per 64-byte MAC block.
func MACSlot(dataAddr uint64) int {
	return int((dataAddr / 64) % 8)
}
