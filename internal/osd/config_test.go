package osd

import (
	"reflect"
	"testing"
)

// TestConfigSurface pins the settable values of Config: the exported leaf
// fields, nested structs walked. A new knob fails here until it is added
// to the list on purpose.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"ID",
		"NumFilestoreWorkers",
		"Throttles.FilestoreQueueMaxOps",
		"Throttles.OSDClientMessageCap",
		"Admission.Tenants",
		"JournalSize",
		"OptPendingQueue",
		"OptCompletionWorker",
		"OptFastAck",
		"OrderedAcks",
		"WakeupBatch",
		"LogMode",
		"Backend",
		"FStore.LightTx",
		"FStore.MetaMissProb",
		"FStore.VerifyData",
		"FStore.ApplyWriteback",
		"TraceSample",
	}
	var got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", f.Type)
				continue
			}
			got = append(got, prefix+f.Name)
		}
	}
	walk("", reflect.TypeOf(Config{}))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Config leaf fields\n got %q\nwant %q", got, want)
	}
}
