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
//
// Every recovery pass that rebuilds a leaf from its data does it through
// one Leaf: the controller's reader packs each covered block's MAC
// message, the pass names each written block's candidate counter (the
// hint, or for a general leaf the candidate over its stale counter), one
// CheckHints call checks them eight at a time, and RecoverSlotSC or
// RecoverSlotGC finishes each slot, searching on only after a miss.
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
func (e *Engine) TagSC(ct *[64]byte, addr, encCounter uint64) Tag {
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

// Leaf is the scratch of one leaf recovery from the data blocks it
// covers (§II-D): each block's MAC message, back to back so one batched
// check addresses eight of them from one base, its tag, the written
// slots, and which slots' candidate counters CheckHints verified. A
// general leaf uses its first counter.Arity slots, a split leaf all
// counter.SplitArity. The controller's reader fills it (Line, then Pack,
// per slot); the recovery pass names each slot's candidate, checks them
// in one CheckHints call and finishes each slot with RecoverSlotSC or
// RecoverSlotGC.
type Leaf struct {
	Tag     [counter.SplitArity]Tag // slot i's tag, as read beside its line
	msgs    [counter.SplitArity * sit.DataMACMsgSize]byte
	written [counter.SplitArity]int
	n       int    // written slots packed since Reset
	hits    uint64 // bit i: slot i's candidate counter verified
}

// msg returns slot i's MAC message.
func (l *Leaf) msg(i int) *[sit.DataMACMsgSize]byte {
	return (*[sit.DataMACMsgSize]byte)(l.msgs[i*sit.DataMACMsgSize:])
}

// Reset empties the written list before a new leaf is read.
func (l *Leaf) Reset() { l.n = 0 }

// Line returns where slot i's ciphertext line is read to: the first 64
// bytes of its MAC message.
func (l *Leaf) Line(i int) *[64]byte { return (*[64]byte)(l.msgs[i*sit.DataMACMsgSize:]) }

// Pack completes slot i after its line was read into Line(i): the message
// takes the block's address and, as its candidate counter, the tag hint;
// a written tag appends the slot to Written. It forgets any earlier check
// of the slot.
func (l *Leaf) Pack(i int, addr uint64, tag Tag) {
	sit.PutDataMACMsg(l.msg(i), addr, l.Line(i), tag.Hint)
	l.Tag[i] = tag
	l.hits &^= 1 << uint(i)
	if tag.Written {
		l.written[l.n] = i
		l.n++
	}
}

// Written returns the slots packed with a written tag since Reset, in
// packing order; the slice is l's own.
func (l *Leaf) Written() []int { return l.written[:l.n] }

// SetCandidate names the counter CheckHints checks for slot i in place of
// the tag hint.
func (l *Leaf) SetCandidate(i int, ctr uint64) {
	binary.LittleEndian.PutUint64(l.msg(i)[sit.DataMACMsgSize-8:], ctr)
}

// CheckHints checks every listed slot's candidate counter against its
// tag's MAC: eight slots per crypt.Sum80x8 call, each message checked in
// place. The listed slots must be written ones; a check holds until the
// slot's next Pack or the next CheckHints. It charges nothing: each pass
// charges the MACs its finisher reports as the pass models them.
func (e *Engine) CheckHints(l *Leaf, slots []int) {
	l.hits = 0
	var off [8]int
	var sums [8]uint64
	for len(slots) > 0 {
		group := slots[:min(len(slots), 8)]
		slots = slots[len(group):]
		for j, i := range group {
			off[j] = i * sit.DataMACMsgSize
		}
		crypt.Sum80x8(e.MAC, e.Key, l.msgs[:], &off, len(group), &sums)
		for j, i := range group {
			if sums[j] == l.Tag[i].MAC {
				l.hits |= 1 << uint(i)
			}
		}
	}
}

// RecoverSlotSC restores the (major, minor) encryption counter of split
// slot i, whose candidate was its tag hint (the full counter the tag was
// written under): the major is the hint's high bits, and the minor the
// verified hint's low bits or, on a miss, the Osiris-style search over all
// 64 minors. macOps charges the modelled search (§IV-D) either way:
// minor+1 on a hit, the search's tries on a miss. The two could disagree
// only if a lower minor's MAC collided with the tag's 64-bit MAC, and
// there the hint names the block's true counter. The slot's message
// counter word is scratch.
func (e *Engine) RecoverSlotSC(l *Leaf, i int) (major uint64, minor uint8, macOps uint64, ok bool) {
	tag := l.Tag[i]
	major = tag.Hint >> 6
	if l.hits>>uint(i)&1 != 0 {
		minor = uint8(tag.Hint & 63)
		return major, minor, uint64(minor) + 1, true
	}
	ctr, tried, ok := crypt.SearchCounter(e.MAC, e.Key, l.msg(i)[:], major<<6, 1, 64, tag.MAC)
	if !ok {
		return 0, 0, uint64(tried), false
	}
	return major, uint8(ctr & 63), uint64(tried), true
}

// RecoverSlotGC restores the encryption counter of general slot i: a
// verified candidate is the counter; on a miss every counter congruent to
// the tag hint is tried from the hint upward, steps of them (none for
// steps <= 0). A hit is exact, since the MAC binds (ciphertext, address,
// counter), so an intact block survives the loss of its leaf image.
// tried counts the search's MACs alone: the pass charges the candidate's
// check as it models it. The slot's message counter word is scratch.
func (e *Engine) RecoverSlotGC(l *Leaf, i, steps int) (ctr uint64, tried int, ok bool) {
	msg := l.msg(i)
	if l.hits>>uint(i)&1 != 0 {
		return binary.LittleEndian.Uint64(msg[sit.DataMACMsgSize-8:]), 0, true
	}
	tag := l.Tag[i]
	return crypt.SearchCounter(e.MAC, e.Key, msg[:], tag.Hint, GCHintMask+1, steps, tag.MAC)
}
