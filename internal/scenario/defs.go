// Package scenario defines the application scenarios of the paper's
// evaluation (Table 1), the background workloads that share driver locks
// with them, and the corpus generator that turns them into ETW-shaped
// trace streams via the sim kernel.
//
// Each scenario has developer thresholds Tfast and Tslow, as §4.2.1
// requires: instances faster than Tfast form the fast contrast class and
// instances slower than Tslow form the slow class.
package scenario

import (
	"sort"

	"tracescope/internal/drivers"
	"tracescope/internal/sim"
	"tracescope/internal/stats"
	"tracescope/internal/trace"
)

// Env carries the per-instance generation context handed to scenario
// builders: the machine's driver stack, a deterministic random source, and
// the episode parameters that shape contention.
type Env struct {
	Stack *drivers.Stack
	Rng   *stats.Rand
	// Bucket selects which file-table / MDU lock bucket the instance
	// touches; instances in the same episode share a bucket and so
	// contend (§2.2).
	Bucket int
	// AppLock, when non-empty, names an application-level lock (profile
	// store, document state, ...) the instance takes around its
	// driver-mediated section. Waits on it carry no driver frames, so
	// the holder's driver waits surface as top-level driver waits in
	// the waiters' Wait Graphs too — the event overlap across instances
	// that §2.1 identifies as the manifestation of cost propagation and
	// that Dwaitdist measures.
	AppLock string
	// Severity >= 1 stretches driver work (contention storms).
	Severity float64
	// NetStall >= 1 stretches network tails.
	NetStall float64
	// HardFault triggers a paged-memory hard fault in graphics paths
	// (§5.2.4).
	HardFault bool
}

func (e *Env) burnMS(lo, hi float64) sim.Op {
	return sim.Burn(trace.Duration(e.Rng.Uniform(lo, hi) * 1000))
}

// guard wraps ops in the instance's application-level lock, when present.
func (e *Env) guard(ops ...sim.Op) []sim.Op {
	if e.AppLock == "" {
		return ops
	}
	return sim.WithLock(e.AppLock, ops...)
}

// Def describes one scenario: its contrast-class thresholds, the process
// that initiates it, and the builder producing the initiating thread's
// program.
type Def struct {
	Name    string
	Process string
	// EntryFrame is the "module!function" frame the initiating thread
	// carries for the scenario's whole execution (tracedump -catalog
	// lists it).
	EntryFrame string
	// Tfast is the upper bound of normal performance; Tslow the lower
	// bound of degradation (§4.2.1).
	Tfast trace.Duration
	Tslow trace.Duration
	Build func(e *Env) []sim.Op
}

// The eight selected scenarios of Table 1.
const (
	AppAccessControl   = "AppAccessControl"
	AppNonResponsive   = "AppNonResponsive"
	BrowserFrameCreate = "BrowserFrameCreate"
	BrowserTabClose    = "BrowserTabClose"
	BrowserTabCreate   = "BrowserTabCreate"
	BrowserTabSwitch   = "BrowserTabSwitch"
	MenuDisplay        = "MenuDisplay"
	WebPageNavigation  = "WebPageNavigation"
)

// Additional foreground scenarios. The paper's corpus spans 1,364
// scenarios of which eight are selected for causality analysis (§5.2);
// these extras populate the same machines, contend the same locks, and
// count toward the headline impact numbers without being analysed
// individually.
const (
	FileSave      = "FileSave"
	AppLaunch     = "AppLaunch"
	SearchQuery   = "SearchQuery"
	DocumentPrint = "DocumentPrint"
)

// Background scenario names; their instances populate the corpus alongside
// the selected eight and create the cross-scenario propagation the impact
// analysis measures.
const (
	AVScanBurst   = "AVScanBurst"
	ConfigSync    = "ConfigSync"
	SystemIndexer = "SystemIndexer"
	TelemetrySend = "TelemetrySend"
)

// ms builds a Duration from milliseconds.
func ms(v float64) trace.Duration { return trace.Duration(v * 1000) }

// catalog returns the full scenario catalogue keyed by name.
func catalog() map[string]Def {
	defs := []Def{
		{
			Name: BrowserTabCreate, Process: "Browser",
			EntryFrame: "Browser!TabCreate",
			Tfast:      ms(300), Tslow: ms(500),
			Build: func(e *Env) []sim.Op {
				body := []sim.Op{e.burnMS(90, 210)}
				var files []sim.Op
				opens := 2 + e.Rng.Intn(2)
				for i := 0; i < opens; i++ {
					files = append(files, e.Stack.FileOpen(e.Bucket, 1, e.Severity, e.Severity)...)
				}
				files = append(files, e.Stack.NetworkFetch(e.NetStall))
				if e.Rng.Bool(0.5) {
					files = append(files, e.Stack.NetworkFetch(e.NetStall))
				}
				body = append(body, e.guard(files...)...)
				body = append(body, e.Stack.ServiceQuery(e.Bucket, e.Severity, e.Severity))
				body = append(body, e.burnMS(90, 220)) // layout + paint
				return sim.Seq(sim.Invoke("Browser!TabCreate", body...))
			},
		},
		{
			Name: BrowserTabSwitch, Process: "Browser",
			EntryFrame: "Browser!TabSwitch",
			Tfast:      ms(180), Tslow: ms(240),
			Build: func(e *Env) []sim.Op {
				body := []sim.Op{e.burnMS(40, 90)}
				var inner []sim.Op
				inner = append(inner,
					e.Stack.CacheLookup(e.Bucket, 0.6, e.Severity, e.Severity),
					e.Stack.GPUAcquire(ms(e.Rng.Uniform(3, 10)), e.HardFault && e.Rng.Bool(0.3)),
				)
				if e.Rng.Bool(0.4) {
					inner = append(inner, e.Stack.CacheLookup(e.Bucket, 0.6, e.Severity, e.Severity))
				}
				body = append(body, e.guard(inner...)...)
				body = append(body, e.Stack.ServiceQuery(e.Bucket, e.Severity, e.Severity))
				body = append(body, e.burnMS(45, 105))
				return sim.Seq(sim.Invoke("Browser!TabSwitch", body...))
			},
		},
		{
			Name: BrowserTabClose, Process: "Browser",
			EntryFrame: "Browser!TabClose",
			Tfast:      ms(120), Tslow: ms(160),
			Build: func(e *Env) []sim.Op {
				body := []sim.Op{e.burnMS(30, 75)}
				var inner []sim.Op
				inner = append(inner, e.Stack.BackupScan(e.Bucket, e.Severity))
				inner = append(inner, e.Stack.FileOpen(e.Bucket, 1, e.Severity, e.Severity)...)
				body = append(body, e.guard(inner...)...)
				body = append(body, e.burnMS(30, 70))
				return sim.Seq(sim.Invoke("Browser!TabClose", body...))
			},
		},
		{
			Name: BrowserFrameCreate, Process: "Browser",
			EntryFrame: "Browser!FrameCreate",
			Tfast:      ms(330), Tslow: ms(490),
			Build: func(e *Env) []sim.Op {
				body := []sim.Op{e.burnMS(70, 165)}
				var inner []sim.Op
				for i := 0; i < 2; i++ {
					inner = append(inner, e.Stack.FileOpen(e.Bucket, 1, e.Severity, e.Severity)...)
				}
				inner = append(inner, e.Stack.NetworkFetch(e.NetStall))
				body = append(body, e.guard(inner...)...)
				body = append(body, e.Stack.ServiceQuery(e.Bucket, e.Severity, e.Severity))
				body = append(body, e.burnMS(75, 165))
				return sim.Seq(sim.Invoke("Browser!FrameCreate", body...))
			},
		},
		{
			Name: WebPageNavigation, Process: "Browser",
			EntryFrame: "Browser!Navigate",
			Tfast:      ms(540), Tslow: ms(750),
			Build: func(e *Env) []sim.Op {
				body := []sim.Op{e.burnMS(75, 180)}
				var inner []sim.Op
				fetches := 2 + e.Rng.Intn(2)
				for i := 0; i < fetches; i++ {
					inner = append(inner, e.Stack.NetworkFetch(e.NetStall))
				}
				inner = append(inner, e.Stack.CacheLookup(e.Bucket, 0.5, e.Severity, e.Severity))
				inner = append(inner, e.Stack.FileOpen(e.Bucket, 1, e.Severity, e.Severity)...)
				body = append(body, e.guard(inner...)...)
				body = append(body, e.Stack.ServiceQuery(e.Bucket, e.Severity, e.Severity))
				body = append(body, e.burnMS(180, 390)) // parse + layout
				return sim.Seq(sim.Invoke("Browser!Navigate", body...))
			},
		},
		{
			Name: MenuDisplay, Process: "Shell",
			EntryFrame: "Shell!MenuDisplay",
			Tfast:      ms(145), Tslow: ms(240),
			Build: func(e *Env) []sim.Op {
				// Menus rendering items from remote servers: network-bound
				// (Table 4: 7/10 top patterns are network drivers here).
				// Remote menu items ride slow, far-away links: the network
				// tail is twice as heavy here, and file activity is light.
				body := []sim.Op{e.burnMS(25, 55), e.Stack.MouseQuery()}
				var inner []sim.Op
				inner = append(inner, e.Stack.NetworkFetch(e.NetStall*2))
				if e.Rng.Bool(0.8) {
					inner = append(inner, e.Stack.NetworkFetch(e.NetStall*2))
				}
				if e.Rng.Bool(0.2) {
					inner = append(inner, e.Stack.CacheLookup(e.Bucket, 0.7, e.Severity, e.Severity))
				}
				body = append(body, e.guard(inner...)...)
				body = append(body, e.burnMS(25, 55))
				return sim.Seq(sim.Invoke("Shell!MenuDisplay", body...))
			},
		},
		{
			Name: AppAccessControl, Process: "App",
			EntryFrame: "App!AccessCheck",
			Tfast:      ms(110), Tslow: ms(185),
			Build: func(e *Env) []sim.Op {
				// Access checks walk security descriptors on disk through
				// the filter stack: file-system + filter heavy (Table 4).
				body := []sim.Op{e.burnMS(25, 60)}
				var inner []sim.Op
				checks := 2 + e.Rng.Intn(2)
				for i := 0; i < checks; i++ {
					inner = append(inner, e.Stack.AVIntercept(e.Severity))
					inner = append(inner, e.Stack.QueryFileTable(e.Bucket, 1, e.Severity, e.Severity))
				}
				body = append(body, e.guard(inner...)...)
				body = append(body, e.burnMS(25, 60))
				return sim.Seq(sim.Invoke("App!AccessCheck", body...))
			},
		},
		{
			Name: AppNonResponsive, Process: "App",
			EntryFrame: "App!MessageLoop",
			Tfast:      ms(570), Tslow: ms(700),
			Build: func(e *Env) []sim.Op {
				body := []sim.Op{e.burnMS(150, 360)}
				var inner []sim.Op
				inner = append(inner, e.Stack.GPUAcquire(ms(e.Rng.Uniform(8, 25)), e.HardFault))
				inner = append(inner, e.Stack.FileOpen(e.Bucket, 1, e.Severity, e.Severity)...)
				body = append(body, e.guard(inner...)...)
				if e.Rng.Bool(0.3) {
					body = append(body, e.Stack.ACPIQuery())
				}
				body = append(body, e.burnMS(150, 330))
				return sim.Seq(sim.Invoke("App!MessageLoop", body...))
			},
		},
	}

	extras := []Def{
		{
			Name: FileSave, Process: "Office",
			EntryFrame: "Office!SaveDocument",
			Tfast:      ms(120), Tslow: ms(260),
			Build: func(e *Env) []sim.Op {
				body := []sim.Op{e.burnMS(20, 60)}
				var inner []sim.Op
				inner = append(inner, e.Stack.BackupScan(e.Bucket, e.Severity))
				inner = append(inner, e.Stack.FileOpen(e.Bucket, 1, e.Severity, e.Severity)...)
				body = append(body, e.guard(inner...)...)
				body = append(body, e.burnMS(10, 30))
				return sim.Seq(sim.Invoke("Office!SaveDocument", body...))
			},
		},
		{
			Name: AppLaunch, Process: "Office",
			EntryFrame: "Office!Launch",
			Tfast:      ms(400), Tslow: ms(900),
			Build: func(e *Env) []sim.Op {
				// Cold starts read many binaries and settings and warm
				// the GPU pipeline.
				body := []sim.Op{e.burnMS(60, 160)}
				var inner []sim.Op
				for i := 0; i < 3; i++ {
					inner = append(inner, e.Stack.FileOpen(e.Bucket, 1, e.Severity, e.Severity)...)
				}
				body = append(body, e.guard(inner...)...)
				body = append(body, e.Stack.GPUAcquire(ms(e.Rng.Uniform(5, 15)), false))
				body = append(body, e.Stack.ServiceQuery(e.Bucket, e.Severity, e.Severity))
				body = append(body, e.burnMS(80, 200))
				return sim.Seq(sim.Invoke("Office!Launch", body...))
			},
		},
		{
			Name: SearchQuery, Process: "Search",
			EntryFrame: "Search!Query",
			Tfast:      ms(150), Tslow: ms(350),
			Build: func(e *Env) []sim.Op {
				body := []sim.Op{e.burnMS(15, 45)}
				var inner []sim.Op
				inner = append(inner, e.Stack.CacheLookup(e.Bucket, 0.4, e.Severity, e.Severity))
				inner = append(inner, e.Stack.QueryFileTable(e.Bucket, 1, e.Severity, e.Severity))
				body = append(body, e.guard(inner...)...)
				if e.Rng.Bool(0.4) {
					body = append(body, e.Stack.NetworkFetch(e.NetStall))
				}
				body = append(body, e.burnMS(15, 45))
				return sim.Seq(sim.Invoke("Search!Query", body...))
			},
		},
		{
			Name: DocumentPrint, Process: "Office",
			EntryFrame: "Office!Print",
			Tfast:      ms(300), Tslow: ms(700),
			Build: func(e *Env) []sim.Op {
				body := []sim.Op{e.burnMS(40, 110)}
				var inner []sim.Op
				inner = append(inner, e.Stack.FileOpen(e.Bucket, 1, e.Severity, e.Severity)...)
				body = append(body, e.guard(inner...)...)
				// Spooling to the print device.
				body = append(body, sim.Invoke("Office!Spool",
					sim.DeviceOp{Device: "printer", D: ms(e.Rng.Uniform(20, 90))}))
				body = append(body, e.burnMS(20, 50))
				return sim.Seq(sim.Invoke("Office!Print", body...))
			},
		},
	}

	backgrounds := []Def{
		{
			Name: AVScanBurst, Process: "AV",
			EntryFrame: "AV!ScanBurst",
			Tfast:      ms(400), Tslow: ms(1200),
			Build: func(e *Env) []sim.Op {
				body := []sim.Op{e.burnMS(10, 25)}
				files := 2 + e.Rng.Intn(3)
				for i := 0; i < files; i++ {
					body = append(body, e.Stack.AVIntercept(e.Severity*1.5))
					body = append(body, e.Stack.AcquireMDU(e.Bucket, 1, e.Severity, e.Severity))
				}
				body = append(body, e.burnMS(10, 30))
				return sim.Seq(sim.Invoke("AV!ScanBurst", body...))
			},
		},
		{
			Name: ConfigSync, Process: "CM",
			EntryFrame: "CM!SyncSettings",
			Tfast:      ms(300), Tslow: ms(900),
			Build: func(e *Env) []sim.Op {
				body := []sim.Op{e.burnMS(10, 25)}
				for i := 0; i < 2; i++ {
					body = append(body, e.Stack.AcquireMDU(e.Bucket, 1+e.Rng.Intn(2), e.Severity, e.Severity))
				}
				if e.Rng.Bool(0.5) {
					body = append(body, e.Stack.NetworkFetch(e.NetStall))
				}
				body = append(body, e.Stack.ServiceQuery(e.Bucket, e.Severity, e.Severity))
				body = append(body, e.burnMS(10, 25))
				return sim.Seq(sim.Invoke("CM!SyncSettings", body...))
			},
		},
		{
			Name: SystemIndexer, Process: "Indexer",
			EntryFrame: "Indexer!Crawl",
			Tfast:      ms(500), Tslow: ms(1500),
			Build: func(e *Env) []sim.Op {
				body := []sim.Op{e.burnMS(25, 55)}
				files := 2 + e.Rng.Intn(4)
				for i := 0; i < files; i++ {
					body = append(body, e.Stack.QueryFileTable(e.Bucket, 1, e.Severity, e.Severity))
				}
				body = append(body, e.burnMS(25, 55))
				return sim.Seq(sim.Invoke("Indexer!Crawl", body...))
			},
		},
		{
			Name: TelemetrySend, Process: "Telemetry",
			EntryFrame: "Telemetry!Upload",
			Tfast:      ms(200), Tslow: ms(800),
			Build: func(e *Env) []sim.Op {
				return sim.Seq(sim.Invoke("Telemetry!Upload",
					e.burnMS(8, 20),
					e.Stack.NetworkFetch(e.NetStall),
					e.burnMS(4, 12),
				))
			},
		},
	}

	all := append(defs, extras...)
	all = append(all, backgrounds...)
	out := make(map[string]Def, len(all))
	for _, d := range all {
		out[d.Name] = d
	}
	return out
}

var defs = catalog()

// Lookup returns the definition of a named scenario.
func Lookup(name string) (Def, bool) {
	d, ok := defs[name]
	return d, ok
}

// Selected returns the eight selected scenario names in Table 1 order.
func Selected() []string {
	return []string{
		AppAccessControl, AppNonResponsive, BrowserFrameCreate,
		BrowserTabClose, BrowserTabCreate, BrowserTabSwitch,
		MenuDisplay, WebPageNavigation,
	}
}

// Extras returns the additional (non-selected) foreground scenarios.
func Extras() []string {
	return []string{FileSave, AppLaunch, SearchQuery, DocumentPrint}
}

// Backgrounds returns the background scenario names.
func Backgrounds() []string {
	return []string{AVScanBurst, ConfigSync, SystemIndexer, TelemetrySend}
}

// All returns every scenario name, sorted.
func All() []string {
	names := make([]string, 0, len(defs))
	for n := range defs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Thresholds returns (Tfast, Tslow) for a scenario; ok is false for
// unknown names.
func Thresholds(name string) (tfast, tslow trace.Duration, ok bool) {
	d, found := defs[name]
	if !found {
		return 0, 0, false
	}
	return d.Tfast, d.Tslow, true
}
