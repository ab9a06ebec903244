package timeline

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteAccessCSV exports the recording's memory-access stream: one
// "seq,time_ps,kind,addr,category" row per bank reservation (one per NVM
// access) in issue order, with seq counting from 1 and time_ps the
// access's completion. A trailing comment row records the rows written and
// the recording's dropped-event count, so a trace cut short by the
// recorder limit is distinguishable from a complete one.
func (rec *Recording) WriteAccessCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seq", "time_ps", "kind", "addr", "category"}); err != nil {
		return err
	}
	rows := 0
	for _, e := range rec.Events {
		if e.Kind != "bank" {
			continue
		}
		rows++
		row := []string{
			strconv.Itoa(rows),
			strconv.FormatInt(int64(e.Done), 10),
			e.Op,
			fmt.Sprintf("0x%x", e.Addr),
			e.Label,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "# events=%d dropped=%d\n", rows, rec.Dropped)
	return err
}
