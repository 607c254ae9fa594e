package metrics

import (
	"fmt"
	"reflect"
)

// Sum returns the field-wise sum of two counter snapshots of one struct
// type: every int, uint and float field is added, through arrays and
// nested or embedded structs. It is how a stats type aggregates shards,
// slices or devices without a hand-written list of its fields, so a
// counter is declared once, in its struct, and every sum includes it.
// Gauges (bytes in use, entry counts) add up like counters, which is what
// a total across shards wants. Any other field kind — a slice, map,
// pointer, string or bool — has no sum, and Sum panics naming the field.
// Unexported fields are not settable and make reflect panic.
func Sum[T any](a, b T) T {
	out := a
	if bad := add(reflect.ValueOf(&out).Elem(), reflect.ValueOf(&b).Elem()); bad != "" {
		panic(fmt.Sprintf("metrics: Sum cannot add field %s%s", reflect.TypeOf(out), bad))
	}
	return out
}

// add adds src into dst and returns "" or, for a field it cannot add,
// its path below dst and its kind.
func add(dst, src reflect.Value) string {
	switch dst.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst.SetInt(dst.Int() + src.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		dst.SetUint(dst.Uint() + src.Uint())
	case reflect.Float32, reflect.Float64:
		dst.SetFloat(dst.Float() + src.Float())
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			if bad := add(dst.Field(i), src.Field(i)); bad != "" {
				return "." + dst.Type().Field(i).Name + bad
			}
		}
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			if bad := add(dst.Index(i), src.Index(i)); bad != "" {
				return fmt.Sprintf("[%d]%s", i, bad)
			}
		}
	default:
		return " (" + dst.Kind().String() + ")"
	}
	return ""
}
