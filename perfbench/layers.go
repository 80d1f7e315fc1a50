package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core/runcache"
)

// layerMetric is one per-layer metric and the prediction written down
// before measuring: which end-to-end metric it should move, on which
// workloads, and where it should not move.
type layerMetric struct {
	name, unit, better string
	moves, on, still   string
}

// layerMetrics lists every per-layer metric the traced run reports, in
// report order. The names are cited by later changes; keep them.
var layerMetrics = []layerMetric{
	{"sysenv.materialise_ms", "ms", "lower", "matrix_s", "cold,fill", "restart,served"},
	{"sysenv.materialise_calls", "count", "lower", "matrix_s", "cold,fill", "restart,served"},
	{"asm.preprocess_ms", "ms", "lower", "matrix_s,cell_ms_p99", "cold,fill", "restart,served"},
	{"asm.assemble_ms", "ms", "lower", "matrix_s,cell_ms_p99", "cold,fill", "restart,served"},
	{"asm.units", "count", "lower", "matrix_s,cell_ms_p99", "cold,fill", "restart,served"},
	{"asm.lines", "count", "lower", "matrix_s,cell_ms_p99", "cold,fill", "restart,served"},
	{"obj.link_ms", "ms", "lower", "matrix_s", "cold,fill", "restart,served"},
	{"obj.link_calls", "count", "lower", "matrix_s", "cold,fill", "restart,served"},
	{"buildcache.hits", "count", "higher", "matrix_s", "all", ""},
	{"buildcache.misses", "count", "lower", "matrix_s", "all", ""},
	{"buildcache.disk_hits", "count", "higher", "matrix_s", "all", ""},
	{"buildcache.reuse", "%", "higher", "matrix_s", "all", ""},
	{"runcache.hits", "count", "higher", "matrix_s", "all", ""},
	{"runcache.misses", "count", "lower", "matrix_s", "all", ""},
	{"runcache.disk_hits", "count", "higher", "matrix_s", "all", ""},
	{"runcache.bypassed", "count", "lower", "matrix_s", "all", ""},
	{"runcache.reuse", "%", "higher", "matrix_s", "all", ""},
	{"castore.open_ms", "ms", "lower", "matrix_s", "restart", "cold,served"},
	{"castore.gets", "count", "lower", "matrix_s", "restart", "cold,served"},
	{"castore.get_ms", "ms", "lower", "matrix_s", "restart", "cold,served"},
	{"castore.get_hit_ratio", "fraction", "higher", "matrix_s", "restart", "cold,served"},
	{"castore.read_mb", "MB", "lower", "matrix_s", "restart", "cold,served"},
	{"castore.puts", "count", "lower", "matrix_s", "fill", "cold,served"},
	{"castore.put_ms", "ms", "lower", "matrix_s", "fill", "cold,served"},
	{"castore.locks", "count", "lower", "matrix_s", "fill", "cold,served"},
	{"castore.lock_ms", "ms", "lower", "matrix_s", "fill", "cold,served"},
	{"castore.written_mb", "MB", "lower", "matrix_s", "fill", "cold,served"},
	{"sysenv.persist_encode_ms", "ms", "lower", "matrix_s", "fill", "cold"},
	{"sysenv.persist_decode_ms", "ms", "lower", "matrix_s", "restart", "cold"},
	{"platform.construct_ms", "ms", "lower", "matrix_s,cell_ms_p99", "served,restart", ""},
	{"platform.load_ms", "ms", "lower", "matrix_s,cell_ms_p99", "served,restart", ""},
	{"platform.execute_ms", "ms", "lower", "matrix_s,cell_ms_p99", "served,restart", ""},
	{"platform.check_ms", "ms", "lower", "matrix_s,cell_ms_p99", "served,restart", ""},
	{"platform.insts", "count", "lower", "matrix_s,cell_ms_p99", "served,restart", ""},
	{"platform.ns_per_inst", "ns", "lower", "matrix_s,cell_ms_p99", "served,restart", ""},
	{"translate.blocks_built", "count", "lower", "platform.execute_ms,matrix_s", "served,restart", ""},
	{"translate.blocks_executed", "count", "lower", "platform.execute_ms,matrix_s", "served,restart", ""},
	{"predecode.pages_decoded", "count", "lower", "platform.execute_ms,matrix_s", "served,restart", ""},
	{"vet.preflight_ms", "ms", "lower", "matrix_s", "restart,served", ""},
	{"vet.preflight_calls", "count", "lower", "matrix_s", "restart,served", ""},
	{"release.certify_ms", "ms", "lower", "matrix_s", "restart,served", ""},
	{"journal.records", "count", "lower", "matrix_s", "all", ""},
	{"journal.emit_ms", "ms", "lower", "matrix_s", "all", ""},
	{"journal.bytes", "bytes", "lower", "matrix_s", "all", ""},
	{"regress.busy_frac", "fraction", "higher", "matrix_s", "all", ""},
	{"regress.unattributed_ms", "ms", "lower", "matrix_s", "all", ""},
	{"shard.frames", "count", "lower", "matrix_s", "served", "cold,fill,restart"},
	{"shard.bytes", "bytes", "lower", "matrix_s", "served", "cold,fill,restart"},
	{"shard.overhead_ms_per_cell", "ms", "lower", "matrix_s", "served", "cold,fill,restart"},
	{"runtime.alloc_mb", "MB", "lower", "cell_ms_p99,peak_rss_mb", "cold", ""},
	{"runtime.gc_cycles", "count", "lower", "cell_ms_p99,peak_rss_mb", "cold", ""},
	{"runtime.gc_cpu_frac", "fraction", "lower", "cell_ms_p99,peak_rss_mb", "cold", ""},
	{"trace.overhead_ms", "ms", "lower", "none (tracing cost)", "all", ""},
}

const mb = 1 << 20

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cacheCounts is one matrix's build- and run-cache counters.
type cacheCounts struct {
	bHits, bMiss, bDisk, rHits, rMiss, rDisk, rBypass float64
}

// matrixCaches reads a matrix's cache counters. In-process they are the
// caches' own Stats. A served matrix's caches live in the worker
// processes, out of reach, so what the workers' store wrapper saw
// splits them: a fill writes through (a miss), a store hit is a disk
// hit, and the rest of the lookups the replay's content keys predict,
// or of the run-cached cells, were memory hits.
func matrixCaches(out *matrixOut, counts map[string]float64, rp *replayOut) cacheCounts {
	if out.req == 0 {
		b, r := out.bstats, out.rstats
		return cacheCounts{float64(b.Hits + b.Merged), float64(b.Misses), float64(b.DiskHits),
			float64(r.Hits + r.Merged), float64(r.Misses), float64(r.DiskHits), float64(r.Bypassed)}
	}
	c := cacheCounts{bMiss: counts["buildcache.puts"], bDisk: counts["buildcache.hits"],
		rMiss: counts["runcache.puts"], rDisk: counts["runcache.hits"]}
	lookups := float64(rp.buildHits + rp.buildDisk + rp.materialise + rp.units + rp.links)
	c.bHits = lookups - c.bMiss - c.bDisk
	var cached float64
	for _, o := range out.outcomes {
		if o.RunCached {
			cached++
		}
		if !runcache.Cacheable(o.Platform) {
			c.rBypass++
		}
	}
	c.rHits = cached - c.rDisk
	return c
}

// layerValues computes every per-layer metric, per matrix, from the
// traced matrices, the layer replay of the last one, the served
// workers' per-request traces (nil in-process), and the untraced
// matrices' median wall time.
func layerValues(traced []*matrixOut, rp *replayOut, byReq map[uint64]workerRequest, untraced time.Duration) (map[string]float64, error) {
	v := make(map[string]float64)
	n := float64(len(traced))
	var walls []float64
	var gcCPU, totalCPU, gets, getHits float64
	var regressMs, cellMs, cells float64
	var last cacheCounts
	for _, out := range traced {
		walls = append(walls, ms(out.wall))
		spans := append([]span(nil), out.rec.spans...)
		counts := make(map[string]float64)
		for k, c := range out.rec.counts {
			counts[k] += c
		}
		rt := out.rt
		if out.req != 0 {
			wr, ok := byReq[out.req]
			if !ok {
				return nil, fmt.Errorf("no worker trace for daemon request %d", out.req)
			}
			spans = append(spans, wr.Spans...)
			for k, c := range wr.Counts {
				counts[k] += c
			}
			rt = runtimeSample{allocBytes: counts["runtime.alloc_bytes"], gcCycles: counts["runtime.gc_cycles"],
				gcCPU: counts["runtime.gc_cpu_s"], assistCPU: counts["runtime.gc_assist_cpu_s"],
				totalCPU: counts["runtime.total_cpu_s"]}
		} else {
			for _, c := range []string{"translate.blocks_built", "translate.blocks_executed", "predecode.pages_decoded"} {
				counts[c] = float64(out.reg.Counter(c).Value())
			}
		}
		self := selfTimes(spans)
		for _, l := range []string{"castore.open", "castore.get", "castore.put", "castore.lock", "castore.close",
			"sysenv.persist_encode", "sysenv.persist_decode", "journal.emit", "release.certify"} {
			v[l+"_ms"] += ms(self[l]) / n
		}
		for _, c := range []string{"castore.gets", "castore.puts", "castore.locks", "journal.records",
			"translate.blocks_built", "translate.blocks_executed", "predecode.pages_decoded"} {
			v[c] += counts[c] / n
		}
		gets += counts["castore.gets"]
		getHits += counts["castore.get_hits"]
		v["castore.read_mb"] += counts["castore.read_bytes"] / mb / n
		v["castore.written_mb"] += counts["castore.written_bytes"] / mb / n
		v["journal.bytes"] += float64(out.journalBytes) / n
		v["shard.frames"] += (float64(out.clientFrames) + counts["shard.frames"]) / n
		v["shard.bytes"] += (float64(out.clientBytes) + counts["shard.bytes"]) / n
		v["runtime.alloc_mb"] += rt.allocBytes / mb / n
		v["runtime.gc_cycles"] += rt.gcCycles / n
		// GC assists run on the allocating goroutine, inside the layers'
		// own times; only the background share is a layer of its own.
		v["runtime.gc_background_ms"] += 1e3 * (rt.gcCPU - rt.assistCPU) / n
		gcCPU += rt.gcCPU
		totalCPU += rt.totalCPU

		var cellNs int64
		for _, o := range out.outcomes {
			cellNs += o.BuildNanos + o.RunNanos
		}
		cellMs += float64(cellNs) / 1e6
		cells += float64(len(out.outcomes))
		regressMs += ms(self["shard.regress"])
		v["regress.busy_frac"] += float64(cellNs) / (float64(workers) * float64(out.wall)) / n

		last = matrixCaches(out, counts, rp)
		v["buildcache.hits"] += last.bHits / n
		v["buildcache.misses"] += last.bMiss / n
		v["buildcache.disk_hits"] += last.bDisk / n
		v["runcache.hits"] += last.rHits / n
		v["runcache.misses"] += last.rMiss / n
		v["runcache.disk_hits"] += last.rDisk / n
		v["runcache.bypassed"] += last.rBypass / n
	}
	if gets > 0 {
		v["castore.get_hit_ratio"] = getHits / gets
	}
	if totalCPU > 0 {
		v["runtime.gc_cpu_frac"] = gcCPU / totalCPU
	}
	for _, c := range []string{"buildcache", "runcache"} {
		total := v[c+".hits"] + v[c+".misses"] + v[c+".disk_hits"]
		if total > 0 {
			v[c+".reuse"] = 100 * (v[c+".hits"] + v[c+".disk_hits"]) / total
		}
	}

	// The replay's calls must match the replayed matrix's cache misses,
	// or its layer times describe some other matrix.
	if built := float64(rp.materialise + rp.units + rp.links); built != last.bMiss {
		return nil, fmt.Errorf("replay built %v artifacts, the matrix missed the build cache %v times", built, last.bMiss)
	}
	if runs := float64(rp.runs); runs != last.rMiss+last.rBypass {
		return nil, fmt.Errorf("replay ran %v cells, the matrix ran %v live", runs, last.rMiss+last.rBypass)
	}

	self := selfTimes(rp.rec.spans)
	v["sysenv.materialise_ms"] = ms(self["sysenv.materialise"])
	v["sysenv.materialise_calls"] = float64(rp.materialise)
	v["asm.preprocess_ms"] = ms(self["asm.preprocess"])
	v["asm.assemble_ms"] = ms(self["asm.assemble"])
	v["asm.units"] = float64(rp.units)
	v["asm.lines"] = float64(rp.lines)
	v["obj.link_ms"] = ms(self["obj.link"])
	v["obj.link_calls"] = float64(rp.links)
	for _, l := range []string{"construct", "load", "execute", "check"} {
		v["platform."+l+"_ms"] = ms(self["platform."+l])
	}
	v["platform.insts"] = float64(rp.insts)
	if rp.insts > 0 {
		v["platform.ns_per_inst"] = float64(self["platform.execute"]) / float64(rp.insts)
	}
	// One preflight inside the regression (or the daemon), one inside
	// release.Certify.
	v["vet.preflight_calls"] = 2
	v["vet.preflight_ms"] = 2 * ms(rp.preflight)
	v["release.certify_self_ms"] = v["release.certify_ms"] - ms(rp.preflight)
	if regressMs > 0 {
		// Protocol cost per cell: the pool's capacity over the request,
		// minus the cells' own time and the daemon's preflight, during
		// which every worker waits.
		v["shard.overhead_ms_per_cell"] = (float64(workers)*(regressMs-n*ms(rp.preflight)) - cellMs) / cells
		v["shard.overhead_ms"] = v["shard.overhead_ms_per_cell"] * cells / n
	}
	v["regress.unattributed_ms"] = float64(workers)*mean(walls) - attributed(v)
	sort.Float64s(walls)
	v["trace.overhead_ms"] = median(walls) - ms(untraced)
	return v, nil
}

// shareRows are the layers of the share table, each a sum of per-layer
// times. Cell-phase layers run on both workers at once, so every share
// is of the matrix's capacity: workers x matrix wall time. What no row
// claims is regress.unattributed: the worker left idle while the other
// runs a serial step (preflight, certify), scheduling, and what two
// busy workers cost each other beyond the replay's serial times.
var shareRows = []struct {
	layer string
	parts []string
}{
	{"sysenv.materialise", []string{"sysenv.materialise_ms"}},
	{"asm.preprocess", []string{"asm.preprocess_ms"}},
	{"asm.assemble", []string{"asm.assemble_ms"}},
	{"obj.link", []string{"obj.link_ms"}},
	{"castore", []string{"castore.open_ms", "castore.get_ms", "castore.put_ms", "castore.lock_ms", "castore.close_ms"}},
	{"sysenv.persist", []string{"sysenv.persist_encode_ms", "sysenv.persist_decode_ms"}},
	{"platform.construct", []string{"platform.construct_ms"}},
	{"platform.load", []string{"platform.load_ms"}},
	{"platform.execute", []string{"platform.execute_ms"}},
	{"platform.check", []string{"platform.check_ms"}},
	{"vet.preflight", []string{"vet.preflight_ms"}},
	{"release.certify (self)", []string{"release.certify_self_ms"}},
	{"journal.emit", []string{"journal.emit_ms"}},
	{"runtime.gc (background)", []string{"runtime.gc_background_ms"}},
	{"shard.overhead", []string{"shard.overhead_ms"}},
}

// attributed sums the share table's layers. release.certify counts only
// its self time: one of the two preflights runs inside it, and
// vet.preflight already counts both.
func attributed(v map[string]float64) float64 {
	var sum float64
	for _, r := range shareRows {
		for _, p := range r.parts {
			sum += v[p]
		}
	}
	return sum
}

// shareColumn is one workload's column of the share table.
type shareColumn struct {
	workload string
	matrixMs float64
	v        map[string]float64
}

// writeShareTable prints each layer's time per matrix and its share of
// the matrix's capacity, one column per workload, and the unattributed
// remainder that makes each column sum to 100%.
func writeShareTable(w io.Writer, cols []shareColumn) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s", "layer (ms per matrix)")
	for _, c := range cols {
		fmt.Fprintf(&b, " %20s", c.workload)
	}
	b.WriteString("\n")
	row := func(name string, val func(shareColumn) float64) {
		fmt.Fprintf(&b, "%-24s", name)
		for _, c := range cols {
			x := val(c)
			fmt.Fprintf(&b, " %10.1f (%5.1f%%)", x, 100*x/(float64(workers)*c.matrixMs))
		}
		b.WriteString("\n")
	}
	for _, r := range shareRows {
		row(r.layer, func(c shareColumn) float64 {
			var s float64
			for _, p := range r.parts {
				s += c.v[p]
			}
			return s
		})
	}
	row("regress.unattributed", func(c shareColumn) float64 { return c.v["regress.unattributed_ms"] })
	row("capacity (2 x wall)", func(c shareColumn) float64 { return float64(workers) * c.matrixMs })
	fmt.Fprint(w, b.String())
}

// writePredictions prints, for every per-layer metric, the end-to-end
// metric and workloads it should move and where it should not.
func writePredictions(w io.Writer) {
	fmt.Fprintf(w, "%-28s %-30s %-16s %s\n", "per-layer metric", "should move", "on", "no change on")
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "%-28s %-30s %-16s %s\n", m.name, m.moves, m.on, m.still)
	}
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
