package llee

import (
	"fmt"

	"llva/internal/codegen"
	"llva/internal/core"
)

// entry is one function's place in its module state's code table: the
// record sessions install, and the translation that is producing one or
// that failed to.
type entry struct {
	cachedFunc         // the published record (NativeFunc nil: none yet)
	fl         *flight // the translation in flight, or the one that failed (nil: neither)
}

// flight is one translation of a function: exactly one goroutine
// translates, every other call for the same name waits on done. err is
// set, under the state's mutex, when the translation failed.
type flight struct {
	done chan struct{}
	err  error
}

// code is the one path by which a function's code enters the state's
// table. It returns the code of f's record, translating f first with p's
// translator (moduleState.translate) unless the table holds a record it
// may take: a demand (ahead false) takes any record it finds, so installed
// code is never exchanged mid-run; translation ahead of execution takes
// one unless it is stale under p. When another call is translating f, it
// waits for that translation instead of starting a second, so each
// function is translated once per System however many sessions and
// Preloads ask for it at once; performed reports whether this call did
// the work. The record is published under ms.mu, where NewSession links
// what it installs and writeBack finds what it writes. A translation that
// fails, by error or by panic, is an ErrTranslate naming f, publishes
// nothing, and is what every later call for f that finds no record to
// take returns.
func (ms *moduleState) code(p *tier2Plan, f *core.Function, ahead bool) (nf *codegen.NativeFunc, performed bool, err error) {
	name := f.Name()
	ms.mu.Lock()
	for {
		e := ms.held[name]
		if e.NativeFunc != nil && !(ahead && p.stale(e.cachedFunc)) {
			ms.mu.Unlock()
			return e.NativeFunc, false, nil
		}
		if e.fl == nil {
			break
		}
		if e.fl.err != nil {
			ms.mu.Unlock()
			return nil, false, e.fl.err
		}
		done := e.fl.done
		ms.mu.Unlock()
		<-done
		ms.mu.Lock()
	}
	fl := &flight{done: make(chan struct{})}
	if ms.held == nil {
		ms.held = make(map[string]entry)
	}
	e := ms.held[name]
	e.fl = fl
	ms.held[name] = e
	ms.mu.Unlock()

	nf, err = ms.translate(p, f)

	ms.mu.Lock()
	defer ms.mu.Unlock()
	defer close(fl.done)
	if err != nil {
		fl.err = fmt.Errorf("%w: %%%s: %v", ErrTranslate, name, err)
		return nil, true, fl.err
	}
	ms.held[name] = entry{cachedFunc: p.record(nf)}
	ms.nobj = nil
	ms.unwritten = true
	return nf, true, nil
}

// link builds the object a session installs from the state's table: the
// records it holds, whichever translator produced them, in module order. A
// function without one is left to its stub. The caller holds ms.mu.
func (ms *moduleState) link() {
	ms.nobj = &codegen.NativeObject{TargetName: ms.desc.Name, Module: ms.module.Name,
		Funcs: make([]*codegen.NativeFunc, 0, len(ms.held))}
	for _, f := range ms.module.Functions {
		if e := ms.held[f.Name()]; e.NativeFunc != nil {
			ms.nobj.Funcs = append(ms.nobj.Funcs, e.NativeFunc)
		}
	}
}

// writeBack writes the state's table as the module's code entry, records
// in module function order (the deterministic cache layout), when it holds
// records the storage API has not been given yet, so the next start of
// this module skips straight to them. It never re-reads storage, and when
// nothing was published since the last write (every run of a session that
// installed the whole module up front) it writes and allocates nothing.
// Called after every run, at the end of translateAhead and at
// System.Close.
func (ms *moduleState) writeBack() error {
	if ms.sys.storage == nil {
		return nil
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if !ms.unwritten {
		return nil
	}
	co := cachedObject{TargetName: ms.desc.Name, Module: ms.module.Name, Funcs: make([]cachedFunc, 0, len(ms.held))}
	for _, f := range ms.module.Functions {
		if e := ms.held[f.Name()]; e.NativeFunc != nil {
			co.Funcs = append(co.Funcs, e.cachedFunc)
		}
	}
	if err := ms.sys.storage.Write(ms.key("native"), ms.stamp, encodeCachedObject(&co)); err != nil {
		return err
	}
	ms.unwritten = false
	return nil
}
