package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/core/buildcache"
	"repro/internal/core/derivative"
	"repro/internal/core/env"
	"repro/internal/core/regress"
	"repro/internal/core/release"
	"repro/internal/core/sysenv"
	"repro/internal/core/vet"
	"repro/internal/obj"
	"repro/internal/platform"
)

// replayOut is what the layer replay measured and counted for one
// matrix.
type replayOut struct {
	rec *recorder
	// Calls made, one per cache miss of the replayed matrix.
	materialise, units, lines, links, runs int
	// Build-cache lookups the replay's content keys predict.
	buildHits, buildDisk int
	insts                uint64
	preflight            time.Duration
}

// replay re-times the layers a traced matrix ran, from outside, by
// calling their public functions: System.Materialise, asm.Expand,
// asm.Assemble, obj.Link, platform.New, Platform.Load, Platform.Run,
// Result.Passed and release.Preflight. It walks the matrix's cells in
// enumeration order and makes one call per cache miss the matrix made:
// a cell served from the run cache built and ran nothing; any other
// cell ran live and looked its image up in the build cache, whose
// content keys the replay recomputes the way sysenv does, so an
// artifact is built once per key. stored says every artifact was
// already in the persistent store when the matrix began (restart,
// served), so lookups that miss memory are store hits, not builds.
func replay(s *sysenv.System, label *release.SystemLabel, outcomes []regress.Outcome, stored bool) (*replayOut, error) {
	rec := newRecorder()
	out := &replayOut{rec: rec}
	t0 := time.Now()
	trees := make(map[string]map[string]string)
	objects := make(map[string]*obj.Object)
	images := make(map[string]*obj.Image)
	// noted says which keys the simulated cache already holds, so a
	// lookup of a stored artifact counts one disk hit, then memory hits.
	noted := make(map[string]bool)
	lookup := func(key string) (hit bool) {
		switch {
		case noted[key]:
			out.buildHits++
			return true
		case stored:
			out.buildDisk++
		}
		noted[key] = true
		return false
	}
	// timed runs f as a span under the cell when it is a real miss and
	// untimed when the artifact is only needed to feed a later layer.
	timed := func(miss bool, cellSpan int64, cell, name string, f func()) time.Duration {
		t := time.Now()
		f()
		d := time.Since(t)
		if miss {
			rec.record(0, cellSpan, name, cell, t, t.Add(d))
		}
		return d
	}
	for _, o := range outcomes {
		if o.RunCached {
			continue
		}
		d, err := derivative.ByName(o.Derivative)
		if err != nil {
			return nil, err
		}
		e, ok := s.Env(o.Module)
		if !ok {
			return nil, fmt.Errorf("replay: no module %q", o.Module)
		}
		cell := cellKey(o)
		cellSpan := spanIDs.Add(1)
		cellStart := time.Now()

		tree, ok := trees[d.Name]
		treeMiss := !lookup("tree/" + d.Name)
		if treeMiss || !ok {
			timed(treeMiss && !stored, cellSpan, cell, "sysenv.materialise", func() { tree = s.Materialise(d) })
			trees[d.Name] = tree
			if treeMiss && !stored {
				out.materialise++
			}
		}
		res := sysenv.NewResolver(tree, o.Module)
		defs := sysenv.BuildDefines(d, o.Platform)
		sortedDefs := sortDefines(defs)
		units := []struct{ name, path string }{
			{"crt0.asm", sysenv.GlobalDir + "/" + sysenv.Crt0File},
			{"trap_handlers.asm", sysenv.GlobalDir + "/" + sysenv.TrapHandlersFile},
			{"embedded_software.asm", sysenv.GlobalDir + "/" + sysenv.EmbeddedSWFile},
			{"Base_Functions.asm", o.Module + "/" + env.BaseFuncsFile},
			{o.Test + "/test.asm", e.TestSourcePath(o.Test)},
		}
		keys := make([]string, len(units))
		for i, u := range units {
			keys[i] = objectKey(u.name, tree[u.path], res, sortedDefs)
		}
		cfg := obj.LinkConfig{TextBase: d.HW.RomBase, DataBase: d.HW.RamBase, Entry: "_start"}
		imgKey := buildcache.Key(append([]string{"image",
			strconv.FormatUint(uint64(cfg.TextBase), 16),
			strconv.FormatUint(uint64(cfg.DataBase), 16),
			cfg.Entry}, keys...)...)
		img, have := images[imgKey]
		imgMiss := !lookup(imgKey)
		if imgMiss || !have {
			build := imgMiss && !stored
			objs := make([]*obj.Object, len(units))
			for i, u := range units {
				ob, have := objects[keys[i]]
				objMiss := build && !lookup(keys[i])
				if have && !objMiss {
					objs[i] = ob
					continue
				}
				opts := asm.Options{Defines: defs, Resolver: res}
				src := tree[u.path]
				var lines []asm.Line
				var errs []error
				pre := timed(objMiss, cellSpan, cell, "asm.preprocess", func() { lines, errs = asm.Expand(u.name, src, opts) })
				if len(errs) > 0 {
					return nil, fmt.Errorf("replay: preprocess %s: %v", u.name, errs[0])
				}
				var aerr error
				t := time.Now()
				ob, aerr = asm.Assemble(u.name, src, opts)
				if objMiss {
					// asm.Assemble preprocesses internally; its own share
					// is the call minus the preprocess just measured.
					end := time.Now()
					rec.record(0, cellSpan, "asm.assemble", cell, minTime(t.Add(pre), end), end)
					out.units++
					out.lines += len(lines)
				}
				if aerr != nil {
					return nil, fmt.Errorf("replay: assemble %s: %w", u.name, aerr)
				}
				objects[keys[i]] = ob
				objs[i] = ob
			}
			var lerr error
			timed(build, cellSpan, cell, "obj.link", func() { img, lerr = obj.Link(cfg, objs...) })
			if lerr != nil {
				return nil, fmt.Errorf("replay: link %s: %w", cell, lerr)
			}
			if build {
				out.links++
			}
			images[imgKey] = img
		}

		var p platform.Platform
		var r *platform.Result
		var perr error
		timed(true, cellSpan, cell, "platform.construct", func() { p, perr = platform.New(o.Platform, d.HW) })
		if perr == nil {
			timed(true, cellSpan, cell, "platform.load", func() { perr = p.Load(img) })
		}
		if perr == nil {
			timed(true, cellSpan, cell, "platform.execute", func() {
				r, perr = p.Run(platform.RunSpec{Engine: platform.EngineTranslate})
			})
		}
		if perr != nil {
			return nil, fmt.Errorf("replay: run %s: %w", cell, perr)
		}
		var passed bool
		timed(true, cellSpan, cell, "platform.check", func() { passed = r.Passed() })
		if passed != o.Passed || r.Instructions != o.Insts || r.Cycles != o.Cycles {
			return nil, fmt.Errorf("replay: %s ran differently from the matrix", cell)
		}
		out.runs++
		out.insts += r.Instructions
		rec.record(cellSpan, rec.root, "replay.cell", cell, cellStart, time.Now())
	}
	// The matrix ran the vet preflight once inside the regression (or
	// the daemon) and once inside release.Certify. One call is timed as
	// the fastest of three, the least disturbed by the garbage the
	// matrices left, since the share table subtracts it from
	// release.certify.
	for i := 0; i < 3; i++ {
		var perr error
		d := timed(i == 0, rec.root, "", "vet.preflight", func() {
			_, perr = release.Preflight(s, label, vet.NewOptions())
		})
		if perr != nil {
			return nil, perr
		}
		if i == 0 || d < out.preflight {
			out.preflight = d
		}
	}
	rec.record(rec.root, 0, "replay", "", t0, time.Now())
	return out, nil
}

// sortDefines and objectKey recompute sysenv's build-cache content keys
// (internal/core/sysenv/cache.go): an object is keyed by its unit name,
// source, resolved include closure and sorted defines.
func sortDefines(defs map[string]string) []string {
	names := make([]string, 0, len(defs))
	for n := range defs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "define:" + n + "=" + defs[n]
	}
	return out
}

func objectKey(name, src string, res asm.Resolver, sortedDefs []string) string {
	parts := []string{"object", name, src}
	seen := map[string]bool{}
	var walk func(string)
	walk = func(source string) {
		for _, inc := range scanIncludes(source) {
			if seen[inc] {
				continue
			}
			seen[inc] = true
			content, err := res.ReadFile(inc)
			if err != nil {
				parts = append(parts, "missing:"+inc)
				continue
			}
			parts = append(parts, inc, string(content))
			walk(string(content))
		}
	}
	walk(src)
	parts = append(parts, sortedDefs...)
	return buildcache.Key(parts...)
}

func scanIncludes(src string) []string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if len(t) < len(".INCLUDE") || !strings.EqualFold(t[:len(".INCLUDE")], ".INCLUDE") {
			continue
		}
		rest := t[len(".INCLUDE"):]
		i := strings.IndexByte(rest, '"')
		if i < 0 {
			continue
		}
		j := strings.IndexByte(rest[i+1:], '"')
		if j < 0 {
			continue
		}
		out = append(out, rest[i+1:i+1+j])
	}
	return out
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
