package energy

import (
	"sync"

	"github.com/xbiosip/xbiosip/internal/dsp"
	"github.com/xbiosip/xbiosip/internal/netlist"
	"github.com/xbiosip/xbiosip/internal/pantompkins"
	"github.com/xbiosip/xbiosip/internal/synth"
)

// The paper's Fig 4 methodology treats the energy characterization of a
// (stage, stage-configuration) pair as a pure function of that pair: the
// synthesized netlist, its switching activity under the reference stimulus
// and the resulting per-sample energy never change between evaluators,
// design-space-exploration phases or experiments. This file holds the
// process-wide cache that exploits it, built like the kernel plan/table
// cache in package arith/kernel: lookups under a mutex, cold builds
// outside it, first insert wins (a racing duplicate build produces an
// identical entry and is discarded).
//
// A key also carries two independent fingerprints of the stage's stimulus
// signal plus the vector/warmup window, so models characterised over
// different records or analysis windows never alias. Two fingerprints
// because a single 64-bit FNV match is not proof of stimulus identity: a
// collision would silently hand a model another record's Activity and
// Report. With the key carrying both the FNV-1a fingerprint and an
// independent splitmix-style one (energy.fingerprint2), colliding stimuli
// land on distinct keys unless they collide under both mixes at once,
// without the O(vectors) full-stimulus comparison a verify-on-hit scheme
// would pay on every warm lookup.

// charKey identifies one characterization: the stage, its canonical
// arithmetic configuration (dsp.ArithConfig.Canonical, so every accurate
// spelling shares one entry), the two stimulus fingerprints and the
// analysis window.
type charKey struct {
	stage   pantompkins.Stage
	cfg     dsp.ArithConfig
	stim    uint64
	stim2   uint64
	vectors int
	warmup  int
}

// charEntry is one cached characterization: the optimised combinational
// stage netlist, its measured switching activity, the activity-weighted
// synthesis report (per-sample energy included) and the activity-blind
// report of the same optimised netlist (library power; what
// StageOptimizedReport serves). Entries are immutable.
type charEntry struct {
	net *netlist.Netlist
	act netlist.Activity
	rep synth.Report
	opt synth.Report
}

var charCache struct {
	sync.Mutex
	m            map[charKey]*charEntry
	hits, misses int64
}

// Stats is the characterization-cache accounting CacheStats returns.
type Stats struct {
	// Entries is the number of cached (stage, config, stimulus, window)
	// characterizations; Cells the total cell count of their netlists.
	Entries int
	Cells   int
	// ActivityBytes is the live storage of the cached per-cell activity
	// vectors.
	ActivityBytes int64
	// Hits counts StageReport calls served from the cache; Misses counts
	// characterizations actually built (racing duplicate builds count as
	// misses too — they did the work).
	Hits, Misses int64
}

// CacheStats reports the live contents of the global characterization
// cache, the energy-model counterpart of kernel.CacheStats.
func CacheStats() Stats {
	charCache.Lock()
	defer charCache.Unlock()
	st := Stats{Entries: len(charCache.m), Hits: charCache.hits, Misses: charCache.misses}
	for _, e := range charCache.m {
		st.Cells += len(e.net.Cells)
		st.ActivityBytes += int64(len(e.act.PerCell)) * 8
	}
	return st
}

// DropCaches empties the global characterization cache and resets the
// hit/miss counters. Existing entries stay valid for holders (they are
// immutable); only sharing with future lookups is lost. It exists for
// cold-start benchmarks and cache accounting tests.
func DropCaches() {
	charCache.Lock()
	defer charCache.Unlock()
	charCache.m = make(map[charKey]*charEntry)
	charCache.hits, charCache.misses = 0, 0
}

// lookupChar returns the cached characterization for key, counting a hit.
func lookupChar(key charKey) (*charEntry, bool) {
	charCache.Lock()
	defer charCache.Unlock()
	e, ok := charCache.m[key]
	if ok {
		charCache.hits++
	}
	return e, ok
}

// storeChar inserts a freshly built characterization, first insert wins:
// the returned entry is the one every caller shares.
func storeChar(key charKey, e *charEntry) *charEntry {
	charCache.Lock()
	defer charCache.Unlock()
	charCache.misses++
	if charCache.m == nil {
		charCache.m = make(map[charKey]*charEntry)
	}
	if prev, ok := charCache.m[key]; ok {
		return prev
	}
	charCache.m[key] = e
	return e
}
