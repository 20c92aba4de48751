package llee

import (
	"fmt"

	"llva/internal/codegen"
	"llva/internal/core"
)

// flight is one function's demand translation: exactly one goroutine
// translates, every other demand of the same name waits on done.
type flight struct {
	done chan struct{}
	nf   *codegen.NativeFunc
	err  error
}

// demand returns the translation of f, registered under name, for
// installation at its first call: the module's single-flight table makes
// every session of this state share one translation per name. The first
// demand translates (moduleState.translate picks the tier) on the calling
// goroutine; a later one finds the result or waits for it. performed
// reports whether this call did the work, which exactly one caller per
// name sees. done is closed however the translator returns, so a panic in
// it fails the waiting sessions' demands instead of stranding them.
func (ms *moduleState) demand(name string, f *core.Function) (nf *codegen.NativeFunc, performed bool, err error) {
	ms.flightMu.Lock()
	fl := ms.flights[name]
	if fl != nil {
		ms.flightMu.Unlock()
		<-fl.done
		return fl.nf, false, fl.err
	}
	fl = &flight{done: make(chan struct{})}
	if ms.flights == nil {
		ms.flights = make(map[string]*flight)
	}
	ms.flights[name] = fl
	ms.flightMu.Unlock()
	defer func() {
		if fl.nf == nil && fl.err == nil {
			fl.err = fmt.Errorf("%w: %%%s: translator panicked", ErrTranslate, name)
		}
		close(fl.done)
	}()
	if fl.nf, fl.err = ms.translate(&ms.plan, f); fl.err != nil {
		fl.nf, fl.err = nil, fmt.Errorf("%w: %%%s: %v", ErrTranslate, name, fl.err)
	}
	return fl.nf, true, fl.err
}

// settled returns the demand translations that have completed without
// error, by name, without waiting for those still in flight: what
// writeBack persists. It is nil when none has.
func (ms *moduleState) settled() map[string]*codegen.NativeFunc {
	ms.flightMu.Lock()
	defer ms.flightMu.Unlock()
	var out map[string]*codegen.NativeFunc
	for name, fl := range ms.flights {
		select {
		case <-fl.done:
			if fl.err == nil {
				if out == nil {
					out = make(map[string]*codegen.NativeFunc, len(ms.flights))
				}
				out[name] = fl.nf
			}
		default:
		}
	}
	return out
}
