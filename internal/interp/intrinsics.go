package interp

import (
	"fmt"

	"llva/internal/core"
)

// Intrinsic functions are implemented by the translator/execution engine
// itself rather than by external software (paper, Section 3.5). They carry
// the reserved "llva." name prefix. Some intrinsics are privileged: calling
// them with the privileged bit clear delivers a privilege trap.
//
// The intrinsic set:
//
//	llva.priv.get() -> bool                     read the privileged bit
//	llva.priv.set(bool)                         write it   [privileged]
//	llva.trap.register(uint, handler)           install trap handler [privileged]
//	llva.trap.raise(uint)                       raise a user trap
//	llva.smc.replace(target, source)            self-modifying code (Section 3.4)
//	llva.stack.depth() -> ulong                 count active frames
//	llva.storage.register(sbyte*)               register the OS storage API (Section 4.1)
//	llva.storage.get() -> sbyte*                query the registered API

// privilegedIntrinsics require the privileged bit.
var privilegedIntrinsics = map[string]bool{
	"llva.priv.set":         true,
	"llva.trap.register":    true,
	"llva.storage.register": true,
}

func (ip *Interp) intrinsic(f *core.Function, args []uint64) (uint64, *trap) {
	name := f.Name()
	if privilegedIntrinsics[name] && !ip.privileged {
		return 0, ip.deliver(TrapPrivilege,
			fmt.Errorf("privileged intrinsic %%%s called with privileged bit clear", name))
	}
	a := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	switch name {
	case "llva.priv.get":
		if ip.privileged {
			return 1, nil
		}
		return 0, nil
	case "llva.priv.set":
		ip.privileged = a(0)&1 != 0
		return 0, nil
	case "llva.trap.register":
		ip.trapHandlers[a(0)] = a(1)
		return 0, nil
	case "llva.trap.raise":
		return 0, ip.deliver(a(0), fmt.Errorf("explicit trap %d", a(0)))
	case "llva.smc.replace":
		return ip.smcReplace(a(0), a(1))
	case "llva.stack.depth":
		return ip.Stats.Calls, nil
	case "llva.storage.register":
		ip.storageAPI = a(0)
		return 0, nil
	case "llva.storage.get":
		return ip.storageAPI, nil
	}
	return 0, &trap{kind: trapFatal, err: fmt.Errorf("interp: unknown intrinsic %%%s", name)}
}

// smcReplace implements the paper's constrained self-modifying-code model:
// the target function's code is replaced, but the change only affects
// FUTURE invocations — any currently-active invocation continues running
// the old body, and the translator simply marks the generated code invalid
// (Section 3.4). Here the replacement is expressed as redirecting target to
// the body of source (both given by address).
func (ip *Interp) smcReplace(targetAddr, sourceAddr uint64) (uint64, *trap) {
	target, ok := ip.addrFunc[targetAddr]
	if !ok {
		return 0, ip.deliver(TrapMemoryFault,
			fmt.Errorf("llva.smc.replace: 0x%x is not a function", targetAddr))
	}
	source, ok := ip.addrFunc[sourceAddr]
	if !ok {
		return 0, ip.deliver(TrapMemoryFault,
			fmt.Errorf("llva.smc.replace: 0x%x is not a function", sourceAddr))
	}
	if target.Signature() != source.Signature() {
		return 0, &trap{kind: trapFatal,
			err: fmt.Errorf("llva.smc.replace: signature mismatch %%%s vs %%%s",
				target.Name(), source.Name())}
	}
	ip.smcRedirect[target] = source
	ip.Stats.SMCInvalidations++
	return 0, nil
}
