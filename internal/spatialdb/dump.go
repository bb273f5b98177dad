package spatialdb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"middlewhere/internal/model"
)

// DumpObjectTable renders the object table in the layout of the
// paper's Table 1: ObjectIdentifier, GlobPrefix, ObjectType,
// GeometryType, Points. Rows are sorted by GLOB.
func (db *DB) DumpObjectTable() string {
	objs := db.Objects()
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s | %-20s | %-10s | %-8s | %s\n",
		"ObjectIdentifier", "GlobPrefix", "ObjectType", "GeomType", "Points")
	for _, o := range objs {
		var pts []string
		for _, p := range o.LocalPoints {
			pts = append(pts, fmt.Sprintf("(%s,%s)", ftoa(p.X), ftoa(p.Y)))
		}
		fmt.Fprintf(&b, "%-16s | %-20s | %-10s | %-8s | %s\n",
			o.GLOB.Name(), o.GLOB.Prefix().String(), o.Type, o.Kind, strings.Join(pts, ", "))
	}
	return b.String()
}

// DumpReadingTable renders all stored readings in the layout of the
// paper's Table 2: SensorId, GlobPrefix, SensorType, MObjectId,
// ObjLocation, DetectionRadius, DetectionTime.
func (db *DB) DumpReadingTable() string {
	byID := make(map[string][]model.Reading)
	for _, sh := range db.allShards() {
		sh.readMu.RLock()
		for id, o := range sh.table.objs {
			if len(o.rows) > 0 {
				byID[id] = append(byID[id], o.rows...)
			}
		}
		sh.readMu.RUnlock()
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var rows []model.Reading
	for _, id := range ids {
		rows = append(rows, byID[id]...)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-8s | %-18s | %-12s | %-10s | %-12s | %-9s | %s\n",
		"SensorId", "GlobPrefix", "SensorType", "MObjectId", "ObjLocation", "DetRadius", "DetTime")
	for _, r := range rows {
		loc := ""
		if len(r.Location.Coords) > 0 {
			loc = r.Location.Coords[0].String()
		} else {
			loc = r.Location.Name()
		}
		fmt.Fprintf(&b, "%-8s | %-18s | %-12s | %-10s | %-12s | %-9s | %s\n",
			r.SensorID, r.Location.Prefix().String(), r.SensorType, r.MObjectID,
			loc, ftoa(r.DetectionRadius), r.Time.Format("15:04:05"))
	}
	return b.String()
}

// DumpSensorTable renders the sensor metadata table of §5.2:
// SensorId, Confidence(%), Time-to-live(s).
func (db *DB) DumpSensorTable() string {
	specs := db.sensorView.Load().specs
	ids := make([]string, 0, len(specs))
	for id := range specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var b strings.Builder
	fmt.Fprintf(&b, "%-12s | %-13s | %s\n", "SensorId", "Confidence(%)", "Time-to-live(s)")
	for _, id := range ids {
		spec := specs[id]
		conf := spec.Errors.DetectProb() * 100
		fmt.Fprintf(&b, "%-12s | %-13.0f | %.0f\n", id, conf, spec.TTL.Seconds())
	}
	return b.String()
}

// ftoa formats floats compactly for table output.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
