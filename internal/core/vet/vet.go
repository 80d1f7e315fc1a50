package vet

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/core/derivative"
	"repro/internal/core/sysenv"
	"repro/internal/platform"
)

// Options tunes the analyzer.
type Options struct {
	// MagicThreshold: numeric literals with absolute value above this are
	// flagged as hardwired. Small structural constants (loop steps, 0/1
	// flags) pass. Default 15.
	MagicThreshold int64
	// AllowLocalEqu: numeric literals on test-local .EQU lines are
	// allowed (the paper permits local placeholder control in tests) —
	// unless the value lands inside a peripheral register block, which is
	// a raw address however it is spelled. Default true via NewOptions.
	AllowLocalEqu bool
	// Derivatives to analyse across. Defaults to the full family.
	Derivatives []*derivative.Derivative
	// Kinds are the platform kinds the portability pass spans. Layer and
	// CFG analysis run at the first kind (platform macros only select
	// values inside the abstraction layer). Defaults to all kinds.
	Kinds []platform.Kind
	// Disable globally turns off check IDs ("all" disables everything —
	// useful only for narrowing a run to one pass).
	Disable map[string]bool
}

// NewOptions returns the default options.
func NewOptions() Options {
	return Options{MagicThreshold: 15, AllowLocalEqu: true}
}

func (o *Options) normalise() {
	if o.MagicThreshold == 0 {
		o.MagicThreshold = 15
	}
	if len(o.Derivatives) == 0 {
		o.Derivatives = derivative.Family()
	}
	if len(o.Kinds) == 0 {
		// The full kind list, independent of which platform
		// implementations are linked in: the analyzer only needs the
		// kinds' preprocessor macros, never an executable platform.
		o.Kinds = []platform.Kind{
			platform.KindGolden, platform.KindRTL, platform.KindGate,
			platform.KindEmulator, platform.KindBondout, platform.KindSilicon,
		}
	}
}

func (o *Options) enabled(check string) bool {
	return !o.Disable[check] && !o.Disable["all"]
}

// Check runs every analyzer pass over a system environment and returns
// the report. Findings are deterministic: same system, same options,
// same bytes out.
func Check(s *sysenv.System, opts Options) *Report {
	opts.normalise()
	r := &Report{System: s.Name}
	for _, d := range opts.Derivatives {
		r.Derivatives = append(r.Derivatives, d.Name)
	}

	// One job per derivative (layer + CFG + whole-program flow) plus the
	// portability probe run concurrently, each into its own slot. The
	// merge reads the slots in derivative order, so the report does not
	// depend on scheduling. Findings present on every derivative merge
	// into one variant-free finding.
	perDeriv := make([][]Finding, len(opts.Derivatives))
	bounds := make([][]StackBound, len(opts.Derivatives))
	var port []Finding
	// The probe job is the largest (every derivative x kind); it goes
	// first so it does not start last.
	jobs := []func(){func() { port = portFindings(s, opts) }}
	for i, d := range opts.Derivatives {
		jobs = append(jobs, func() { perDeriv[i], bounds[i] = derivFindings(s, d, opts.Kinds[0], opts) })
	}
	fanOut(jobs)
	for _, b := range bounds {
		r.Stack = append(r.Stack, b...)
	}
	r.Findings = append(r.Findings, mergeVariants(opts.Derivatives, perDeriv)...)
	r.Findings = append(r.Findings, port...)
	r.Findings = append(r.Findings, deadFindings(s, opts)...)
	r.Findings = append(r.Findings, traceFindings(s, opts)...)

	r.Findings, r.Suppressed = applySuppressions(s, r.Findings)
	sort.Slice(r.Stack, func(i, j int) bool {
		a, b := r.Stack[i], r.Stack[j]
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.Test != b.Test {
			return a.Test < b.Test
		}
		return a.Derivative < b.Derivative
	})
	r.Sort()
	return r
}

// fanOut runs the jobs on at most GOMAXPROCS goroutines and returns
// when every job has finished.
func fanOut(jobs []func()) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				jobs[i]()
			}
		}()
	}
	wg.Wait()
}

// derivFindings is one derivative's share of Check: the layer, CFG and
// whole-program flow passes in a single walk. Each environment's shared
// units (Base_Functions and the global layer) are assembled and decoded
// once, and each test once; the CFG checks, the call graph, the stack
// bound and the dataflow analyses all read the same decoded units, and
// none outlives the call. Findings come back in pass order — every
// layer finding, then every CFG finding, then every flow finding.
func derivFindings(s *sysenv.System, d *derivative.Derivative, k platform.Kind, opts Options) ([]Finding, []StackBound) {
	tree := s.Materialise(d)
	names, blocks := globalNames(d), peripheralBlocks(d)
	var layer, cfg, flow []Finding
	var bounds []StackBound
	buildError := func(base Finding, msg string) {
		if opts.enabled(CheckBuildError) {
			base.Message = msg
			cfg = append(cfg, finding(CheckBuildError, base))
		}
	}
	for _, e := range s.Envs() {
		shared := sharedUnits(tree, e, d, k)
		noreturn := noreturnFuncs(e, shared)
		globalFuncs := globalFuncLabels(shared)
		for _, t := range e.Tests() {
			path := e.TestSourcePath(t.ID)
			base := Finding{Path: path, Module: e.Module, Test: t.ID}
			layer = append(layer, layerFindings(tree, e.Module, t.Source, d, k, names, blocks, base, opts)...)
			o, err := assembleUnit(tree, e.Module, path, t.Source, d, k)
			if err != nil {
				buildError(base, "test does not assemble: "+firstLine(err.Error()))
				continue
			}
			u, err := decodeUnit(o)
			if err != nil {
				buildError(base, "text section does not decode: "+err.Error())
				continue
			}
			cfg = append(cfg, checkCFG(u, noreturn, d, base, opts)...)
			tu := &cgUnitInfo{u: u, path: path, layer: layerTest, indirect: indirectTargets(u)}
			fs, bound := flowFindings(append([]*cgUnitInfo{tu}, shared...), noreturn, globalFuncs, d, base, opts)
			flow = append(flow, fs...)
			bounds = append(bounds, bound)
		}
	}
	return append(append(layer, cfg...), flow...), bounds
}

// finding builds a Finding with the check's default severity.
func finding(check string, f Finding) Finding {
	f.Check = check
	f.Severity = severityOf[check]
	return f
}

// mergeVariants folds per-derivative finding lists: a finding reported
// for every derivative is emitted once without a variant; one reported
// for a strict subset is emitted per derivative with Variant set.
func mergeVariants(derivs []*derivative.Derivative, perDeriv [][]Finding) []Finding {
	type slot struct {
		f     Finding
		on    []int // derivative indexes, in order
		first int   // insertion order of first sighting
	}
	index := make(map[string]*slot)
	var order []*slot
	for di, findings := range perDeriv {
		for _, f := range findings {
			k := f.mergeKey()
			sl, ok := index[k]
			if !ok {
				sl = &slot{f: f, first: len(order)}
				index[k] = sl
				order = append(order, sl)
			}
			if len(sl.on) == 0 || sl.on[len(sl.on)-1] != di {
				sl.on = append(sl.on, di)
			}
		}
	}
	var out []Finding
	for _, sl := range order {
		if len(sl.on) == len(derivs) {
			f := sl.f
			f.Variant = ""
			out = append(out, f)
			continue
		}
		for _, di := range sl.on {
			f := sl.f
			f.Variant = derivs[di].Name
			out = append(out, f)
		}
	}
	return out
}

// ---- suppressions ----

// suppression is one `; lint:disable <check>[,<check>...]` annotation.
// On a code line it applies to that line; on a standalone comment line
// it applies to the whole file. The check list accepts "all".
type suppression struct {
	checks map[string]bool
	line   int // 0 = whole file
}

func (sp suppression) matches(f Finding) bool {
	if sp.line != 0 && sp.line != f.Line {
		return false
	}
	return sp.checks["all"] || sp.checks[f.Check]
}

const disableMarker = "lint:disable"

// scanSuppressions extracts the annotations from one raw source.
func scanSuppressions(src string) []suppression {
	var out []suppression
	for num, text := range strings.Split(src, "\n") {
		ci := strings.Index(text, ";")
		if ci < 0 {
			continue
		}
		comment := text[ci:]
		mi := strings.Index(comment, disableMarker)
		if mi < 0 {
			continue
		}
		list := strings.TrimSpace(comment[mi+len(disableMarker):])
		checks := make(map[string]bool)
		for _, tok := range strings.FieldsFunc(list, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		}) {
			checks[tok] = true
		}
		if len(checks) == 0 {
			continue
		}
		sp := suppression{checks: checks}
		if strings.TrimSpace(text[:ci]) != "" {
			sp.line = num + 1 // trailing comment: this line only
		}
		out = append(out, sp)
	}
	return out
}

// applySuppressions removes findings matched by test-source annotations
// and returns the survivors plus the suppressed count.
func applySuppressions(s *sysenv.System, findings []Finding) ([]Finding, int) {
	byPath := make(map[string][]suppression)
	for _, e := range s.Envs() {
		for _, t := range e.Tests() {
			if sps := scanSuppressions(t.Source); len(sps) > 0 {
				byPath[e.TestSourcePath(t.ID)] = sps
			}
		}
	}
	if len(byPath) == 0 {
		return findings, 0
	}
	out := findings[:0]
	suppressed := 0
	for _, f := range findings {
		drop := false
		for _, sp := range byPath[f.Path] {
			if sp.matches(f) {
				drop = true
				break
			}
		}
		if drop {
			suppressed++
		} else {
			out = append(out, f)
		}
	}
	return out, suppressed
}

// expand preprocesses one test source the way the build pipeline would
// for a derivative/platform pair.
func expand(tree map[string]string, module, path, src string, d *derivative.Derivative, k platform.Kind) ([]asm.Line, []error) {
	return asm.Expand(path, src, asm.Options{
		Resolver: sysenv.NewResolver(tree, module),
		Defines:  sysenv.BuildDefines(d, k),
	})
}
