// Package mem models the memory hierarchy of the simulated machine:
// set-associative write-back caches with LRU replacement over a fixed-
// latency main memory, configured per Table 1 of the paper (64KB 2-way 32B
// IL1, 64KB 4-way 16B DL1, 512KB 4-way 64B unified L2, 50-cycle memory).
package mem

// Level is one level of the hierarchy. Access returns the total latency in
// cycles to obtain the line, including everything below on a miss, and
// whether this level hit.
type Level interface {
	// Access performs a read (write=false) or write (write=true) of the
	// line containing addr.
	Access(addr uint64, write bool) (latency int, hit bool)
	// Latency returns this level's hit latency.
	Latency() int
	// Name identifies the level in statistics output.
	Name() string
}

// MainMemory is the fixed-latency DRAM at the bottom of the hierarchy.
type MainMemory struct {
	Lat      int
	Accesses uint64
}

// NewMainMemory returns DRAM with the given access latency.
func NewMainMemory(latency int) *MainMemory { return &MainMemory{Lat: latency} }

// Access always hits in main memory.
func (m *MainMemory) Access(addr uint64, write bool) (int, bool) {
	m.Accesses++
	return m.Lat, true
}

// Latency returns the DRAM latency.
func (m *MainMemory) Latency() int { return m.Lat }

// Name identifies main memory.
func (m *MainMemory) Name() string { return "mem" }

// CacheConfig describes one cache's geometry and timing.
type CacheConfig struct {
	Name     string
	SizeKB   int // total capacity in KiB
	Ways     int
	LineSize int // bytes, power of two
	Lat      int // hit latency in cycles
	// NextLinePrefetch enables tagged next-line prefetching: a demand
	// miss also pulls the sequentially next line from below (off the
	// requester's critical path).
	NextLinePrefetch bool
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// CacheStats counts cache events.
type CacheStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	Prefetches uint64
}

// MissRate returns misses/accesses (0 when idle).
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative, write-back, write-allocate cache level
// with true-LRU replacement.
type Cache struct {
	cfg  CacheConfig
	next Level
	// lines holds every set back to back: set i is
	// lines[i*Ways : (i+1)*Ways].
	lines    []line
	setShift uint
	setMask  uint64
	tick     uint64
	Stats    CacheStats
}

// NewCache builds a cache over the given lower level. Geometry must be a
// power-of-two line size and divide evenly into sets; violations panic
// since configurations are static (Table 1).
func NewCache(cfg CacheConfig, next Level) *Cache {
	mustf(next != nil, "mem: cache requires a lower level")
	mustf(cfg.LineSize > 0 && cfg.LineSize&(cfg.LineSize-1) == 0, "mem: %s line size %d not a power of two", cfg.Name, cfg.LineSize)
	mustf(cfg.Ways > 0, "mem: %s has %d ways", cfg.Name, cfg.Ways)
	totalLines := cfg.SizeKB * 1024 / cfg.LineSize
	numSets := totalLines / cfg.Ways
	mustf(numSets > 0 && numSets&(numSets-1) == 0, "mem: %s set count %d not a power of two", cfg.Name, numSets)
	c := &Cache{cfg: cfg, next: next, lines: make([]line, numSets*cfg.Ways)}
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	c.setShift = shift
	c.setMask = uint64(numSets - 1)
	return c
}

// Name identifies the cache.
func (c *Cache) Name() string { return c.cfg.Name }

// Latency returns the hit latency.
func (c *Cache) Latency() int { return c.cfg.Lat }

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// set returns the ways of the set addr maps to.
func (c *Cache) set(addr uint64) []line {
	i := int((addr>>c.setShift)&c.setMask) * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways]
}

// Access looks up the line containing addr. On a miss the line is fetched
// from below (charging the lower level's latency) and allocated here,
// evicting the LRU way; dirty victims count as writebacks (charged no
// extra latency, the standard approximation for buffered writebacks).
func (c *Cache) Access(addr uint64, write bool) (int, bool) {
	c.tick++
	c.Stats.Accesses++
	tag := addr >> c.setShift
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Stats.Hits++
			set[i].used = c.tick
			if write {
				set[i].dirty = true
			}
			return c.cfg.Lat, true
		}
	}
	// Miss: fetch from below.
	c.Stats.Misses++
	below, _ := c.next.Access(addr, false)
	c.fill(addr, write)
	if c.cfg.NextLinePrefetch {
		next := (addr | (uint64(c.cfg.LineSize) - 1)) + 1
		if !c.Contains(next) {
			// Prefetches ride behind the demand miss: traffic below,
			// no latency charged to the requester.
			c.Stats.Prefetches++
			c.next.Access(next, false)
			c.fill(next, false)
		}
	}
	return c.cfg.Lat + below, false
}

// fill allocates the line containing addr, evicting LRU (dirty victims
// write back, buffered).
func (c *Cache) fill(addr uint64, dirty bool) {
	tag := addr >> c.setShift
	set := c.set(addr)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.Stats.Writebacks++
		victimAddr := set[victim].tag << c.setShift
		c.next.Access(victimAddr, true)
	}
	set[victim] = line{tag: tag, valid: true, dirty: dirty, used: c.tick}
}

// Flush invalidates every line without writing anything back. Statistics
// are preserved.
func (c *Cache) Flush() {
	clear(c.lines)
}

// Contains reports whether the line holding addr is resident (for tests).
func (c *Cache) Contains(addr uint64) bool {
	set := c.set(addr)
	tag := addr >> c.setShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// NumSets returns the number of sets (for tests).
func (c *Cache) NumSets() int { return len(c.lines) / c.cfg.Ways }
