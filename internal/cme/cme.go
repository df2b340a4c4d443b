// Package cme implements counter-mode encryption for user data (§II-B):
// one-time pads derived from (key, address, counter), XOR encryption, and
// the per-data-block authentication tag.
//
// The tag models the HMAC stored alongside each data block in the ECC bits
// of the DIMM (Synergy-style, so it costs no extra NVM access). Following
// §II-D, in split-counter mode the tag also embeds a copy of the block's
// encryption counter (the paper stores the major; carrying the minor bits
// too lets degraded recovery pin a media-destroyed block's exact counter);
// for general-counter leaves it embeds the low bits of the encryption
// counter as the analogous recovery hint, which bounds the Osiris-style
// counter search during leaf recovery to a single candidate.
package cme

import (
	"encoding/binary"

	"steins/internal/counter"
	"steins/internal/crypt"
	"steins/internal/sit"
)

// Tag is the per-data-block authentication metadata co-located with the
// line (ECC bits): a truncated HMAC plus the counter recovery hint.
type Tag struct {
	MAC     uint64 // truncated HMAC over (ciphertext, address, counter)
	Hint    uint64 // SC: full encryption counter; GC: low 16 bits of the counter
	Written bool   // whether the block has ever been written
}

// Engine performs data encryption and tagging with a fixed key.
// Its methods reuse internal scratch buffers (stack buffers passed into
// the OTP/MAC interfaces would escape to the heap on every call), so an
// Engine must not be shared across goroutines — each controller owns one.
type Engine struct {
	Key crypt.Key
	OTP crypt.OTPGen
	MAC crypt.MAC

	pad [64]byte // scratch: one-time pad
	msg [80]byte // scratch: MAC message
}

// Apply XORs the one-time pad for (addr, encCounter) into buf; the same
// operation encrypts and decrypts.
func (e *Engine) Apply(buf *[64]byte, addr, encCounter uint64) {
	e.OTP.Pad(&e.pad, e.Key, addr, encCounter)
	crypt.XOR64(buf, &e.pad)
}

// GCHintMask selects the counter bits stored in a general-counter tag hint.
const GCHintMask = 0xffff

// TagGC builds the tag for a ciphertext written under a general 56-bit
// leaf counter.
func (e *Engine) TagGC(ct *[64]byte, addr, encCounter uint64) Tag {
	return Tag{
		MAC:     sit.DataMACInto(&e.msg, e.MAC, e.Key, addr, ct, encCounter),
		Hint:    encCounter & GCHintMask,
		Written: true,
	}
}

// TagSC builds the tag for a ciphertext written under a split leaf. §II-D
// stores the leaf's major counter in the data block's HMAC field for
// recovery; the hint here carries the full encryption counter (major and
// minor — the minor rides in the same reserved ECC bits the general-counter
// hint uses), so a block whose ciphertext the media destroyed still pins
// its exact counter. Consumers recover the major as Hint >> minor-width.
func (e *Engine) TagSC(ct *[64]byte, addr, encCounter, major uint64) Tag {
	_ = major // layout knowledge stays with the caller; the hint is the full counter
	return Tag{
		MAC:     sit.DataMACInto(&e.msg, e.MAC, e.Key, addr, ct, encCounter),
		Hint:    encCounter,
		Written: true,
	}
}

// Verify checks a ciphertext against its tag under the given counter.
func (e *Engine) Verify(ct *[64]byte, addr, encCounter uint64, tag Tag) bool {
	return tag.Written && sit.DataMACInto(&e.msg, e.MAC, e.Key, addr, ct, encCounter) == tag.MAC
}

// CandidateGC returns the unique counter >= stale whose low bits equal the
// general-counter tag hint. The controller's write-through guard keeps the
// unflushed advance below the hint modulus, so when the stale base is an
// authentic current image this candidate IS the block's true counter —
// pure arithmetic, usable even when the ciphertext itself is destroyed.
func CandidateGC(stale, hint uint64) uint64 {
	cand := stale&^uint64(GCHintMask) | hint
	if cand < stale {
		cand += GCHintMask + 1
	}
	return cand
}

// RecoverCounterGC restores the encryption counter of a persisted data
// block whose leaf counter was lost: the unique candidate >= stale whose
// low bits equal the tag hint is checked against the MAC. macOps reports
// MAC evaluations for recovery-cost accounting.
func (e *Engine) RecoverCounterGC(ct *[64]byte, addr uint64, tag Tag, stale uint64) (ctr uint64, macOps uint64, ok bool) {
	if !tag.Written {
		return stale, 0, true // never written since initialisation
	}
	sit.PutDataMACMsg(&e.msg, addr, ct, 0)
	return e.RecoverCounterGCMsg(&e.msg, tag, stale)
}

// RecoverCounterGCMsg is RecoverCounterGC for a written block whose MAC
// message the caller already packed with sit.PutDataMACMsg (under any
// counter), so a recovery pass can read each line straight into its
// message. The message's counter word is scratch: its value on return is
// unspecified.
func (e *Engine) RecoverCounterGCMsg(msg *[sit.DataMACMsgSize]byte, tag Tag, stale uint64) (ctr uint64, macOps uint64, ok bool) {
	cand := CandidateGC(stale, tag.Hint)
	if _, _, hit := crypt.SearchCounter(e.MAC, e.Key, msg[:], cand, 0, 1, tag.MAC); hit {
		return cand, 1, true
	}
	return 0, 1, false
}

// SearchCounterGC restores a general-counter block with NO trusted stale
// base (the leaf image was torn, bit-flipped or replayed): every counter
// congruent to the tag hint is tried from the smallest upward, capped at
// steps candidates. A hit is exact — the MAC binds (ciphertext, address,
// counter) — so an intact data block survives the loss of its leaf image.
func (e *Engine) SearchCounterGC(ct *[64]byte, addr uint64, tag Tag, steps int) (ctr uint64, macOps uint64, ok bool) {
	if !tag.Written {
		return 0, 0, true
	}
	sit.PutDataMACMsg(&e.msg, addr, ct, tag.Hint)
	ctr, tried, ok := crypt.SearchCounter(e.MAC, e.Key, e.msg[:], tag.Hint, GCHintMask+1, steps, tag.MAC)
	return ctr, uint64(tried), ok
}

// RecoverCounterSC restores the (major, minor) encryption counter of a
// block covered by a split leaf: the major comes from the high bits of the
// tag hint, the minor from an Osiris-style search over its 64 possible
// values (the search is the §IV-D recovery cost the paper models).
//
// The hint carries the full counter the tag was written under, so the
// host checks that one candidate first and runs the search only when it
// fails; the answer is the search's either way. macOps charges the
// modelled search: minor+1 on a hit, 64 on a miss. The two could disagree
// only if a lower minor's MAC collided with the tag's 64-bit MAC, and
// there the hint names the block's true counter.
func (e *Engine) RecoverCounterSC(ct *[64]byte, addr uint64, tag Tag, staleMinor uint8) (major uint64, minor uint8, macOps uint64, ok bool) {
	if !tag.Written {
		return 0, staleMinor, 0, true
	}
	sit.PutDataMACMsg(&e.msg, addr, ct, tag.Hint)
	return e.RecoverCounterSCMsg(&e.msg, tag)
}

// RecoverCounterSCMsg is RecoverCounterSC for a written block whose MAC
// message the caller already packed with sit.PutDataMACMsg (under any
// counter), so a recovery pass can read each line straight into its
// message. The message's counter word is scratch: its value on return is
// unspecified.
func (e *Engine) RecoverCounterSCMsg(msg *[sit.DataMACMsgSize]byte, tag Tag) (major uint64, minor uint8, macOps uint64, ok bool) {
	_, _, hit := crypt.SearchCounter(e.MAC, e.Key, msg[:], tag.Hint, 0, 1, tag.MAC)
	return e.recoverSC(msg, tag, hit)
}

// recoverSC finishes RecoverCounterSCMsg once the hinted counter's check
// has run: a hit names the minor, a miss runs the 64-candidate search.
func (e *Engine) recoverSC(msg *[sit.DataMACMsgSize]byte, tag Tag, hit bool) (major uint64, minor uint8, macOps uint64, ok bool) {
	major = tag.Hint >> 6
	if hit {
		minor = uint8(tag.Hint & 63)
		return major, minor, uint64(minor) + 1, true
	}
	ctr, tried, ok := crypt.SearchCounter(e.MAC, e.Key, msg[:], major<<6, 1, 64, tag.MAC)
	if !ok {
		return 0, 0, uint64(tried), false
	}
	return major, uint8(ctr & 63), uint64(tried), true
}

// SplitLeaf is the scratch of one split-leaf recovery: the leaf's 64 data
// blocks' MAC messages, back to back so one batched check addresses
// eight of them from one base, their tags, and which slots' hinted
// counters CheckHintsSC verified.
type SplitLeaf struct {
	Tag  [counter.SplitArity]Tag // slot i's tag, as read beside its line
	msgs [counter.SplitArity * sit.DataMACMsgSize]byte
	hits uint64 // bit i: slot i's hinted counter verified
}

// Msg returns slot i's MAC message for the caller to pack (the line read
// straight into its first 64 bytes, then sit.PutDataMACMsg under any
// counter). It forgets any earlier hinted check of the slot.
func (l *SplitLeaf) Msg(i int) *[sit.DataMACMsgSize]byte {
	l.hits &^= 1 << uint(i)
	return (*[sit.DataMACMsgSize]byte)(l.msgs[i*sit.DataMACMsgSize:])
}

// CheckHintsSC runs RecoverCounterSCMsg's first step, the check of the
// counter the tag hint names, for every listed slot of l: eight slots per
// crypt.Sum80x8 call, each message checked in place. RecoverSlotSC then
// finishes each slot. The listed slots must be written ones with their
// messages packed and tags set; the check holds until the next Msg of the
// slot or the next CheckHintsSC. Each message's counter word is scratch.
func (e *Engine) CheckHintsSC(l *SplitLeaf, slots []int) {
	l.hits = 0
	var off [8]int
	var sums [8]uint64
	for len(slots) > 0 {
		group := slots[:min(len(slots), 8)]
		slots = slots[len(group):]
		for j, i := range group {
			off[j] = i * sit.DataMACMsgSize
			binary.LittleEndian.PutUint64(l.msgs[off[j]+sit.DataMACMsgSize-8:], l.Tag[i].Hint)
		}
		crypt.Sum80x8(e.MAC, e.Key, l.msgs[:], &off, len(group), &sums)
		for j, i := range group {
			if sums[j] == l.Tag[i].MAC {
				l.hits |= 1 << uint(i)
			}
		}
	}
}

// RecoverSlotSC returns what RecoverCounterSCMsg returns for slot i of l,
// taking the hinted check from the last CheckHintsSC: on a miss (or a
// slot it did not list) it runs the 64-candidate search, so the result
// and macOps are RecoverCounterSCMsg's either way.
func (e *Engine) RecoverSlotSC(l *SplitLeaf, i int) (major uint64, minor uint8, macOps uint64, ok bool) {
	msg := (*[sit.DataMACMsgSize]byte)(l.msgs[i*sit.DataMACMsgSize:])
	return e.recoverSC(msg, l.Tag[i], l.hits>>uint(i)&1 != 0)
}
