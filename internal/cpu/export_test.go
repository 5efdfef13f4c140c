package cpu

import "merlin/internal/mem"

// PrivateSets sums mem.Cache.PrivateSets over the core's three caches: the
// sets whose tags it has privatised since it was built or last frozen, and
// those of them whose bytes it has written.
func (c *Core) PrivateSets() (tags, bytes int) {
	for _, cache := range []*mem.Cache{c.l1i, c.l1d, c.l2} {
		t, b := cache.PrivateSets()
		tags += t
		bytes += b
	}
	return tags, bytes
}
