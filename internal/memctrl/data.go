package memctrl

import (
	"fmt"

	"steins/internal/cache"
	"steins/internal/counter"
	"steins/internal/metrics"
	"steins/internal/nvmem"
	"steins/internal/sit"
)

// checkDataAddr validates a user-data address, returning a wrapped
// nvmem.ErrUnaligned/ErrOutOfRange on violation.
func (c *Controller) checkDataAddr(addr uint64) error {
	if addr%nvmem.LineSize != 0 {
		return fmt.Errorf("memctrl: %w: data address %#x", nvmem.ErrUnaligned, addr)
	}
	if addr >= c.cfg.DataBytes {
		return fmt.Errorf("memctrl: %w: data address %#x outside %#x data bytes",
			nvmem.ErrOutOfRange, addr, c.cfg.DataBytes)
	}
	return nil
}

// checkReadAddr is checkDataAddr plus the quarantine fence: a read under a
// quarantined leaf fails fast with a typed *QuarantineError carrying the
// arbitration verdict, unless a fresh write already re-admitted this slot.
// Writes are deliberately not fenced — a fresh write is the re-admission
// path.
func (c *Controller) checkReadAddr(addr uint64) error {
	if err := c.checkDataAddr(addr); err != nil {
		return err
	}
	if c.quarN > 0 {
		if leaf, slot := c.lay.Geo.LeafOfData(addr); c.LeafQuarantined(leaf) && !c.slotReadmitted(leaf, slot) {
			c.stats.MediaUnrecoverable++
			return c.quarantineError(addr, leaf)
		}
	}
	return nil
}

// WriteData processes a dirty LLC eviction (§III-F): the covering leaf
// counter advances, the block is encrypted and tagged, and the scheme's
// tracking state is updated. gap is the trace time since the previous
// request.
func (c *Controller) WriteData(gap uint64, addr uint64, data [64]byte) error {
	if err := c.checkDataAddr(addr); err != nil {
		return err
	}
	c.arrive(gap)
	var cycles uint64
	leaf, slot := c.lay.Geo.LeafOfData(addr)
	readmitting := c.quarN > 0 && c.LeafQuarantined(leaf)
	var le *cache.Entry[*sit.Node]
	var fc uint64
	var err error
	if readmitting {
		// Re-admission: a fresh write to a quarantined address adopts the
		// condemned leaf as its counter base and reseals the branch
		// bottom-up through the normal write-back machinery.
		le, fc, err = c.readmitFetchLeaf(leaf)
	} else {
		le, fc, err = c.FetchNode(0, leaf)
	}
	cycles += fc
	if err != nil {
		c.completeWrite(cycles)
		return err
	}
	wasClean := !le.Dirty
	node := le.Payload
	var encCtr, delta uint64
	var skipped bool
	if node.IsSplit {
		// The first re-admitted slot of a quarantine epoch skips the
		// shared major past every encryption counter the condemned
		// lineage could have sealed (its unflushed advance is bounded by
		// WriteThroughEvery writes of at most 64 counter steps each,
		// well under readmitCounterSkip·2^6): an adopted stale base must
		// never reuse a counter an attacker may hold a captured (ct, tag)
		// pair for. Later slots of the same epoch are covered by the
		// same skip — the major never regresses.
		skipped = readmitting && c.ReadmittedSlots(leaf) == 0
		willOverflow := node.Split.Minor[slot] == counter.MinorMax
		var pre counter.Split
		if willOverflow || skipped {
			pre = node.Split
		}
		if skipped {
			node.Split.Major += readmitCounterSkip
			delta += readmitCounterSkip * counter.MinorRange
		}
		d, _ := node.Split.Increment(slot)
		delta += d
		if willOverflow || skipped {
			if willOverflow {
				c.stats.Overflows++
			}
			rc, rerr := c.reencrypt(le, &pre, slot)
			cycles += rc
			if rerr != nil {
				c.completeWrite(cycles)
				return rerr
			}
		}
		encCtr = node.Split.EncCounter(slot)
	} else {
		// Per-slot counters: every slot's first fresh write of a
		// quarantine epoch takes its own skip (its neighbours' counters
		// did not move with it).
		if readmitting && !c.slotReadmitted(leaf, slot) {
			node.Gen.C[slot] = (node.Gen.C[slot] + readmitCounterSkip) & counter.CounterMask
			delta += readmitCounterSkip
			skipped = true
		}
		d, wrapped := node.Gen.Increment(slot)
		delta += d
		if wrapped {
			// The 342–685-year corner case of §III-B2: the system would
			// re-key and rebuild the tree; the simulator surfaces it.
			c.completeWrite(cycles)
			return fmt.Errorf("%w: 56-bit leaf counter wrapped, re-keying required", ErrUnrecoverable)
		}
		encCtr = node.Gen.C[slot]
	}
	le.Dirty = true
	node.WritesSinceFlush++
	// A counter skip is flushed within the same (crash-atomic) request:
	// the persisted leaf base then always bounds the unflushed counter
	// advance by WriteThroughEvery < readmitCounterSkip, which is what
	// makes both hint pinning and the next skip's freshness guarantee
	// exact.
	writeThrough := skipped ||
		c.cfg.WriteThroughEvery > 0 && node.WritesSinceFlush >= c.cfg.WriteThroughEvery
	cycles += c.policy.OnModify(le, wasClean, delta)
	if c.cfg.EagerUpdate {
		ec, eerr := c.eagerPropagate(leaf)
		cycles += ec
		if eerr != nil {
			c.completeWrite(cycles)
			return eerr
		}
	}

	ct := data
	c.eng.Apply(&ct, addr, encCtr)
	c.stats.AESOps++
	if node.IsSplit {
		c.SetTag(addr, c.eng.TagSC(&ct, addr, encCtr))
	} else {
		c.SetTag(addr, c.eng.TagGC(&ct, addr, encCtr))
	}
	c.stats.HashOps++
	c.Attribute(metrics.PhaseCrypto, c.cfg.AESCycles+c.cfg.HashCycles)
	cycles += c.cfg.AESCycles + c.cfg.HashCycles
	stall := c.dev.MustWrite(c.reqStart+cycles, addr, nvmem.Line(ct), nvmem.ClassData)
	c.Attribute(metrics.PhaseWriteDrain, stall)
	cycles += stall
	if readmitting {
		// The slot now holds fresh data under a fresh counter and tag;
		// lift its fence (and the whole leaf's once every slot is fresh).
		c.readmitSlot(leaf, slot)
	}
	if writeThrough {
		// §II-D write-through: persist the leaf (through the scheme's
		// normal write-back) before its counters run beyond the recovery
		// search window. The flush goes last so the captured encryption
		// counter stays valid for this request. A counter-skip flush
		// keeps the trusted copy resident: on a quarantined branch the
		// parent chain may not have resealed yet, and re-fetching
		// through it would fail reads the re-admission just earned.
		var wc uint64
		var werr error
		if e, ok := c.meta.Probe(c.lay.Geo.NodeAddr(0, leaf)); skipped && ok && e.Payload == node {
			wc, werr = c.WriteThroughNode(e)
		} else if !skipped {
			wc, werr = c.FlushNode(0, leaf)
		}
		// A skipped leaf that already left the cache mid-request was
		// persisted by that eviction; nothing more to flush.
		cycles += wc
		if werr != nil {
			c.completeWrite(cycles)
			return werr
		}
	}
	c.completeWrite(cycles)
	return nil
}

// ReadData fetches, verifies and decrypts a data block (§III-F). The OTP
// is generated in parallel with the NVM data fetch, hiding the decryption
// latency when the counter hits in the metadata cache (§II-B).
func (c *Controller) ReadData(gap uint64, addr uint64) ([64]byte, error) {
	if err := c.checkReadAddr(addr); err != nil {
		return [64]byte{}, err
	}
	c.arrive(gap)
	var cycles uint64
	bc, err := c.policy.BeforeRead()
	cycles += bc
	if err != nil {
		c.completeRead(cycles)
		return [64]byte{}, err
	}
	leaf, slot := c.lay.Geo.LeafOfData(addr)
	le, counterPath, err := c.FetchNode(0, leaf)
	if err != nil {
		c.completeRead(cycles + counterPath)
		return [64]byte{}, err
	}
	node := le.Payload
	var encCtr uint64
	if node.IsSplit {
		encCtr = node.Split.EncCounter(slot)
	} else {
		encCtr = node.Gen.C[slot]
	}
	line, dataLat, err := c.ReadLineRetried(c.reqStart+cycles, addr, nvmem.ClassData)
	c.Attribute(metrics.PhaseNVMRead, dataLat)
	if err != nil {
		c.stats.MediaUnrecoverable++
		c.completeRead(cycles + dataLat)
		return [64]byte{}, err
	}
	tag := c.Tag(addr)
	if !tag.Written {
		// A block is legitimately unwritten iff its own counter never
		// advanced: a zero minor under a split leaf (majors advance for
		// the whole leaf on any neighbour's overflow) or a zero counter
		// under a general leaf. Anything else means the tag was erased.
		virgin := encCtr == 0
		if node.IsSplit {
			virgin = node.Split.Minor[slot] == 0
		}
		cycles += max(dataLat, counterPath)
		c.completeRead(cycles)
		if !virgin {
			return [64]byte{}, TamperData(addr, "live counter but no tag")
		}
		// Never written: initial zero contents, nothing to decrypt.
		return [64]byte{}, nil
	}
	ct := [64]byte(line)
	c.stats.AESOps++
	otpReady := counterPath + c.cfg.AESCycles
	// OTP generation overlaps the data fetch; both sides are attributed
	// raw and finishOp's normalization reclaims the hidden cycles.
	c.Attribute(metrics.PhaseCrypto, c.cfg.AESCycles+c.cfg.HashCycles)
	cycles += max(dataLat, otpReady) + c.cfg.HashCycles
	c.stats.HashOps++
	if !c.eng.Verify(&ct, addr, encCtr, tag) {
		c.completeRead(cycles)
		return [64]byte{}, TamperData(addr, "HMAC mismatch on read")
	}
	c.eng.Apply(&ct, addr, encCtr)
	c.completeRead(cycles)
	return ct, nil
}

// reencrypt handles a split-leaf minor overflow (§II-B): every covered
// block written so far is read, decrypted under its pre-overflow counter
// (pre), and re-encrypted under the post-overflow counter. skipSlot (the
// block whose write triggered the overflow) is excluded — its fresh data
// is about to be written under the new counter, and re-encrypting its old
// contents under that same counter would reuse the pad.
func (c *Controller) reencrypt(le *cache.Entry[*sit.Node], pre *counter.Split, skipSlot int) (uint64, error) {
	node := le.Payload
	var cycles uint64
	first := true
	// NVM reads pipeline across banks: the first pays full latency,
	// the rest a per-line issue gap.
	const pipelineGap = 4
	for j := 0; j < counter.SplitArity; j++ {
		if j == skipSlot {
			continue
		}
		daddr := c.lay.Geo.DataAddr(node.Index, j)
		tag := c.Tag(daddr)
		if !tag.Written {
			continue
		}
		if c.quarN > 0 && c.LeafQuarantined(node.Index) && !c.slotReadmitted(node.Index, j) {
			// Condemned coverage: the slot is fenced until freshly
			// rewritten, so there is no plaintext to preserve (its old
			// tag may not even verify). Reseal the raw bytes under the
			// post-bump counter so the leaf's tags stay major-consistent
			// for recovery; the fence still blocks every read.
			ct := [64]byte(c.dev.Peek(daddr))
			c.stats.HashOps++
			c.SetTag(daddr, c.eng.TagSC(&ct, daddr, node.Split.EncCounter(j)))
			continue
		}
		line, rlat, rerr := c.ReadLineRetried(c.reqStart+cycles, daddr, nvmem.ClassData)
		if rerr != nil {
			return cycles + rlat, rerr
		}
		if first {
			c.Attribute(metrics.PhaseNVMRead, rlat)
			cycles += rlat
			first = false
		} else {
			c.Attribute(metrics.PhaseNVMRead, pipelineGap)
			cycles += pipelineGap
		}
		ct := [64]byte(line)
		oldCtr := pre.Major<<counter.MinorBits | uint64(pre.Minor[j])
		c.stats.HashOps++
		if !c.eng.Verify(&ct, daddr, oldCtr, tag) {
			return cycles, TamperData(daddr, "during re-encryption")
		}
		c.eng.Apply(&ct, daddr, oldCtr) // decrypt
		newCtr := node.Split.EncCounter(j)
		c.eng.Apply(&ct, daddr, newCtr) // re-encrypt
		c.stats.AESOps += 2
		c.stats.HashOps++
		c.SetTag(daddr, c.eng.TagSC(&ct, daddr, newCtr))
		wstall := c.dev.MustWrite(c.reqStart+cycles, daddr, nvmem.Line(ct), nvmem.ClassData)
		c.Attribute(metrics.PhaseWriteDrain, wstall)
		cycles += wstall
		c.stats.Reencrypts++
	}
	return cycles, nil
}

// eagerPropagate implements the eager update scheme of §II-C: after a leaf
// modification, every ancestor on the branch is fetched and its counter
// advanced, keeping the whole branch current at the cost of extra fetches.
func (c *Controller) eagerPropagate(leaf uint64) (uint64, error) {
	var cycles uint64
	level, index := 0, leaf
	for !c.lay.Geo.IsTop(level) {
		pl, pi, slot := c.lay.Geo.Parent(level, index)
		pe, pc, err := c.FetchNode(pl, pi)
		cycles += pc
		if err != nil {
			return cycles, err
		}
		cycles += c.SetParentCounter(pe, slot, pe.Payload.Counter(slot)+1, 1)
		level, index = pl, pi
	}
	c.root.SetCounter(index, c.root.Counter(index)+1)
	return cycles, nil
}
