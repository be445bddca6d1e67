package spec

import (
	"fmt"
	"strconv"
	"strings"

	"bopsim/internal/mem"
)

// Values is the parameter map a Build function parses. The typed accessors
// take the default and an error accumulator: the first failed parse wins,
// so a factory reads every parameter unconditionally and checks err once.
type Values map[string]string

// Int parses an integer parameter.
func (v Values) Int(key string, def int, err *error) int {
	raw, ok := v[key]
	if !ok {
		return def
	}
	n, e := strconv.Atoi(raw)
	if e != nil {
		setErr(err, fmt.Errorf("parameter %s=%q: not an integer", key, raw))
		return def
	}
	return n
}

// Uint parses a non-negative integer parameter.
func (v Values) Uint(key string, def uint, err *error) uint {
	n := v.Int(key, int(def), err)
	if n < 0 {
		setErr(err, fmt.Errorf("parameter %s=%d: must be >= 0", key, n))
		return def
	}
	return uint(n)
}

// Bool parses a boolean parameter ("true"/"false"/"1"/"0").
func (v Values) Bool(key string, def bool, err *error) bool {
	raw, ok := v[key]
	if !ok {
		return def
	}
	b, e := strconv.ParseBool(raw)
	if e != nil {
		setErr(err, fmt.Errorf("parameter %s=%q: not a boolean", key, raw))
		return def
	}
	return b
}

// Ints parses a '+'-separated integer list parameter (e.g. "1+2+8").
func (v Values) Ints(key string, def []int, err *error) []int {
	raw, ok := v[key]
	if !ok {
		return def
	}
	parts := strings.Split(raw, "+")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, e := strconv.Atoi(p)
		if e != nil {
			setErr(err, fmt.Errorf("parameter %s=%q: %q is not an integer", key, raw, p))
			return def
		}
		out = append(out, n)
	}
	return out
}

// Seed resolves a generator seed: an explicit non-zero seed parameter wins,
// otherwise the run-derived seed passed to Build ("seed=0", the registered
// default, means "use the run seed").
func (v Values) Seed(derived uint64, err *error) uint64 {
	raw, ok := v["seed"]
	if !ok {
		return derived
	}
	n, e := strconv.ParseUint(raw, 10, 64)
	if e != nil {
		setErr(err, fmt.Errorf("parameter seed=%q: not an unsigned integer", raw))
		return derived
	}
	if n == 0 {
		return derived
	}
	return n
}

// Size parses a byte-size parameter: a decimal byte count or a kb/mb/gb
// suffixed value ("64mb", "512kb").
func (v Values) Size(key string, def mem.Addr, err *error) mem.Addr {
	raw, ok := v[key]
	if !ok {
		return def
	}
	n, e := ParseSize(raw)
	if e != nil {
		setErr(err, fmt.Errorf("parameter %s=%q: %v", key, raw, e))
		return def
	}
	return n
}

func setErr(err *error, e error) {
	if *err == nil {
		*err = e
	}
}

// FormatInts renders an integer list in the canonical '+'-separated form
// Values.Ints parses; registrations use it to spell list defaults.
func FormatInts(list []int) string {
	parts := make([]string, len(list))
	for i, n := range list {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, "+")
}

// canonInts re-renders a decimal integer or '+'-separated integer list in
// canonical form; inputs with any non-integer element pass through
// untouched (Build reports the real error). Unsigned parsing comes first
// so the full uint64 seed range canonicalizes, not just int64's.
func canonInts(value string) string {
	parts := strings.Split(value, "+")
	for i, p := range parts {
		if n, err := strconv.ParseUint(p, 10, 64); err == nil {
			parts[i] = strconv.FormatUint(n, 10)
			continue
		}
		n, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return value
		}
		parts[i] = strconv.FormatInt(n, 10)
	}
	return strings.Join(parts, "+")
}

const (
	kb = mem.Addr(1) << 10
	mb = kb << 10
	gb = mb << 10
)

// ParseSize parses a byte size: plain decimal bytes or kb/mb/gb suffixed
// (case-insensitive).
func ParseSize(raw string) (mem.Addr, error) {
	s := strings.ToLower(strings.TrimSpace(raw))
	mult := mem.Addr(1)
	switch {
	case strings.HasSuffix(s, "kb"):
		mult, s = kb, s[:len(s)-2]
	case strings.HasSuffix(s, "mb"):
		mult, s = mb, s[:len(s)-2]
	case strings.HasSuffix(s, "gb"):
		mult, s = gb, s[:len(s)-2]
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("not a size (want bytes or kb/mb/gb suffix)")
	}
	out := mem.Addr(n) * mult
	if n != 0 && out/mult != mem.Addr(n) {
		return 0, fmt.Errorf("size overflows")
	}
	return out, nil
}

// FormatSize renders a byte size in the canonical form ParseSize parses:
// the largest exact kb/mb/gb suffix, plain bytes otherwise.
func FormatSize(a mem.Addr) string {
	switch {
	case a >= gb && a%gb == 0:
		return strconv.FormatUint(uint64(a/gb), 10) + "gb"
	case a >= mb && a%mb == 0:
		return strconv.FormatUint(uint64(a/mb), 10) + "mb"
	case a >= kb && a%kb == 0:
		return strconv.FormatUint(uint64(a/kb), 10) + "kb"
	default:
		return strconv.FormatUint(uint64(a), 10)
	}
}
