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

	// BatchWindow bounds the deferred-tag queue: QueueTagGC/QueueTagSC
	// collect up to this many data-block tags before computing their MACs
	// in one crypt.Sum64Batch call. <= 1 computes tags synchronously
	// (batching off). Write-path data tags are pure metadata stores — no
	// read consults them until the block is read back — so deferring the
	// host-side computation is invisible as long as the owner flushes
	// before any tag is observed (see Controller guarded reads).
	BatchWindow int

	pad [64]byte // scratch: one-time pad
	msg [80]byte // scratch: MAC message

	// Deferred-tag queue. qMsgs holds packed 80-byte DataMACInto messages
	// back-to-back; qDst the tag slots to fill at flush (stable pointers:
	// arena slots never move), qHint the recovery hints, qAddr the data
	// addresses for pending-lookup.
	qMsgs []byte
	qDst  []*Tag
	qHint []uint64
	qAddr []uint64
	qOut  []uint64
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

// QueueTagGC records a general-counter tag for dst, deferring the MAC to
// the next flush when batching is on; otherwise it stores the tag
// immediately. The queue self-flushes when it reaches BatchWindow.
func (e *Engine) QueueTagGC(dst *Tag, ct *[64]byte, addr, encCounter uint64) {
	if e.BatchWindow <= 1 {
		*dst = e.TagGC(ct, addr, encCounter)
		return
	}
	e.queueTag(dst, ct, addr, encCounter, encCounter&GCHintMask)
}

// QueueTagSC is QueueTagGC for split-counter tags; the full encryption
// counter is stored as the recovery hint (see TagSC).
func (e *Engine) QueueTagSC(dst *Tag, ct *[64]byte, addr, encCounter, major uint64) {
	if e.BatchWindow <= 1 {
		*dst = e.TagSC(ct, addr, encCounter, major)
		return
	}
	e.queueTag(dst, ct, addr, encCounter, encCounter)
}

func (e *Engine) queueTag(dst *Tag, ct *[64]byte, addr, encCounter, hint uint64) {
	e.qMsgs = sit.AppendDataMACMsg(e.qMsgs, addr, ct, encCounter)
	e.qDst = append(e.qDst, dst)
	e.qHint = append(e.qHint, hint)
	e.qAddr = append(e.qAddr, addr)
	if len(e.qDst) >= e.BatchWindow {
		e.FlushTags()
	}
}

// PendingTags reports how many deferred tags await a flush.
func (e *Engine) PendingTags() int { return len(e.qDst) }

// PendingTagFor reports whether a deferred tag for addr is queued. Owners
// must flush before reading the tag of such an address.
func (e *Engine) PendingTagFor(addr uint64) bool {
	for _, a := range e.qAddr {
		if a == addr {
			return true
		}
	}
	return false
}

// FlushTags computes every queued tag MAC in one batch and fills the
// destination slots in queue order (a block written twice in one window
// ends with its latest tag, as queue order is write order).
func (e *Engine) FlushTags() {
	n := len(e.qDst)
	if n == 0 {
		return
	}
	if cap(e.qOut) < n {
		e.qOut = make([]uint64, n)
	}
	out := e.qOut[:n]
	crypt.Sum64Batch(e.MAC, e.Key, e.qMsgs, sit.DataMACMsgSize, out)
	for i, dst := range e.qDst {
		*dst = Tag{MAC: out[i], Hint: e.qHint[i], Written: true}
	}
	e.qMsgs = e.qMsgs[:0]
	e.qDst = e.qDst[:0]
	e.qHint = e.qHint[:0]
	e.qAddr = e.qAddr[:0]
}

// DropPendingTags discards the deferred-tag queue without computing the
// MACs; restore paths use it when the destination slots are about to be
// overwritten wholesale.
func (e *Engine) DropPendingTags() {
	e.qMsgs = e.qMsgs[:0]
	e.qDst = e.qDst[:0]
	e.qHint = e.qHint[:0]
	e.qAddr = e.qAddr[:0]
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
	cand := CandidateGC(stale, tag.Hint)
	if sit.DataMACInto(&e.msg, e.MAC, e.Key, addr, ct, cand) == tag.MAC {
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
	cand := tag.Hint
	sit.PutDataMACMsg(&e.msg, addr, ct, cand)
	for j := 0; j < steps; j++ {
		macOps++
		sit.SetDataMACCounter(&e.msg, cand)
		if e.MAC.Sum64(e.Key, e.msg[:]) == tag.MAC {
			return cand, macOps, true
		}
		cand += GCHintMask + 1
	}
	return 0, macOps, false
}

// RecoverCounterSC restores the (major, minor) encryption counter of a
// block covered by a split leaf: the major comes from the high bits of the
// tag hint, the minor from an Osiris-style search over its 64 possible
// values (the search is the §IV-D recovery cost the paper models; the
// hint's own minor bits only matter when the ciphertext is unverifiable).
func (e *Engine) RecoverCounterSC(ct *[64]byte, addr uint64, tag Tag, staleMinor uint8) (major uint64, minor uint8, macOps uint64, ok bool) {
	if !tag.Written {
		return 0, staleMinor, 0, true
	}
	major = tag.Hint >> 6
	// Pack the message once; each candidate rewrites only the counter.
	sit.PutDataMACMsg(&e.msg, addr, ct, major<<6)
	for m := 0; m < 64; m++ {
		macOps++
		sit.SetDataMACCounter(&e.msg, major<<6|uint64(m))
		if e.MAC.Sum64(e.Key, e.msg[:]) == tag.MAC {
			return major, uint8(m), macOps, true
		}
	}
	return 0, 0, macOps, false
}
