package memctrl

import "steins/internal/sit"

// DataCounter returns the current encryption counter of the leaf slot
// covering data address addr, without timing, statistics, or LRU effects.
// It resolves the newest copy the way a fetch would — resident cache entry
// first, then an in-flight eviction, then the persisted NVM image — so
// differential tests can compare final counter state between runs (and
// between channel counts) after any drive.
func (c *Controller) DataCounter(addr uint64) uint64 {
	c.checkDataAddr(addr)
	leaf, slot := c.lay.Geo.LeafOfData(addr)
	naddr := c.lay.Geo.NodeAddr(0, leaf)
	var node *sit.Node
	if e, ok := c.meta.Probe(naddr); ok {
		node = e.Payload
	} else if n, ok := c.evictingNode(naddr); ok {
		node = n
	} else {
		node = c.StaleNode(0, leaf)
	}
	if node.IsSplit {
		return node.Split.EncCounter(slot)
	}
	return node.Gen.C[slot]
}
