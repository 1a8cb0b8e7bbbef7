package sunstone

import (
	"sunstone/internal/arch"
	"sunstone/internal/mapping"
	"sunstone/internal/serde"
	"sunstone/internal/tensor"
)

// EncodeWorkload serializes a workload description to indented JSON.
func EncodeWorkload(w *Workload) ([]byte, error) { return serde.EncodeWorkload(w) }

// DecodeWorkload parses and validates a JSON workload description.
func DecodeWorkload(data []byte) (*Workload, error) { return serde.DecodeWorkload(data) }

// EncodeArch serializes an architecture description to indented JSON.
func EncodeArch(a *Arch) ([]byte, error) { return serde.EncodeArch(a) }

// DecodeArch parses and validates a JSON architecture description.
func DecodeArch(data []byte) (*Arch, error) { return serde.DecodeArch(data) }

// EncodeMapping serializes a mapping's level assignments to indented JSON.
func EncodeMapping(m *Mapping) ([]byte, error) { return serde.EncodeMapping(m) }

// DecodeMapping parses level assignments, binds them to w and a, and
// validates the result.
func DecodeMapping(data []byte, w *Workload, a *Arch) (*Mapping, error) {
	return serde.DecodeMapping(data, w, a)
}

// Interface-compliance and alias sanity (compile-time).
var (
	_ *tensor.Workload = (*Workload)(nil)
	_ *arch.Arch       = (*Arch)(nil)
	_ *mapping.Mapping = (*Mapping)(nil)
)
