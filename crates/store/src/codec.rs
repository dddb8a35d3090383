//! Hand-rolled little-endian binary codec of the WAL records.
//!
//! The build environment has no registry access, so there is no bincode or
//! crc crate to lean on; this module implements exactly the primitives the
//! log format needs — LE integers, length-prefixed UTF-8 strings and a
//! CRC-32 (IEEE) checksum — plus the **column-major** [`Table`] layout
//! each append record carries: table name, per-column metadata, then each
//! column's cells contiguously.

use lake_table::{ColumnMeta, DataType, Row, Schema, Table, Value};

use crate::error::{StoreError, StoreResult};

/// CRC-32 (IEEE 802.3, reflected polynomial) lookup table, built at
/// compile time.
const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string over 4 GiB"));
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => put_u8(out, 0),
        Value::Text(s) => {
            put_u8(out, 1);
            put_str(out, s);
        }
        Value::Int(i) => {
            put_u8(out, 2);
            put_u64(out, *i as u64);
        }
        Value::Float(x) => {
            put_u8(out, 3);
            put_u64(out, x.to_bits());
        }
        Value::Bool(b) => put_u8(out, 4 + u8::from(*b)),
    }
}

fn type_tag(data_type: DataType) -> u8 {
    match data_type {
        DataType::Text => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Bool => 3,
        DataType::Mixed => 4,
    }
}

fn type_from_tag(tag: u8) -> Option<DataType> {
    match tag {
        0 => Some(DataType::Text),
        1 => Some(DataType::Int),
        2 => Some(DataType::Float),
        3 => Some(DataType::Bool),
        4 => Some(DataType::Mixed),
        _ => None,
    }
}

/// A bounds-checked cursor over an encoded byte slice.  Every `take_*`
/// failure reports `context` (which durable structure was being decoded).
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], context: &'static str) -> Self {
        Reader { buf, pos: 0, context }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn corrupt(&self, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt { context: self.context, detail: detail.into() }
    }

    fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.corrupt(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn take_u8(&mut self) -> StoreResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn take_u32(&mut self) -> StoreResult<u32> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    pub(crate) fn take_u64(&mut self) -> StoreResult<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    pub(crate) fn take_str(&mut self) -> StoreResult<String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("non-UTF-8 string"))
    }

    fn take_value(&mut self) -> StoreResult<Value> {
        match self.take_u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Text(self.take_str()?)),
            2 => Ok(Value::Int(self.take_u64()? as i64)),
            3 => Ok(Value::Float(f64::from_bits(self.take_u64()?))),
            4 => Ok(Value::Bool(false)),
            5 => Ok(Value::Bool(true)),
            tag => Err(self.corrupt(format!("unknown value tag {tag}"))),
        }
    }

    /// Asserts the reader consumed the whole buffer.
    pub(crate) fn finish(self) -> StoreResult<()> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

/// Encodes `table` column-major (the layout each append record carries).
pub fn encode_table(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, table.name());
    let columns = table.schema().columns();
    put_u32(&mut out, u32::try_from(columns.len()).expect("column count over u32"));
    for column in columns {
        put_str(&mut out, &column.name);
        put_u8(&mut out, type_tag(column.data_type));
    }
    put_u64(&mut out, table.num_rows() as u64);
    for col in 0..columns.len() {
        for row in table.rows() {
            put_value(&mut out, &row[col]);
        }
    }
    out
}

/// Decodes a table encoded by [`encode_table`]; `context` names the durable
/// structure the bytes came from for error reporting.
pub fn decode_table(bytes: &[u8], context: &'static str) -> StoreResult<Table> {
    let mut reader = Reader::new(bytes, context);
    let name = reader.take_str()?;
    let num_columns = reader.take_u32()? as usize;
    let mut metas = Vec::with_capacity(num_columns.min(reader.remaining()));
    for _ in 0..num_columns {
        let column_name = reader.take_str()?;
        let tag = reader.take_u8()?;
        let data_type = type_from_tag(tag).ok_or_else(|| StoreError::Corrupt {
            context,
            detail: format!("bad type tag {tag}"),
        })?;
        metas.push(ColumnMeta::typed(column_name, data_type));
    }
    let num_rows = reader.take_u64()? as usize;
    // Cheap plausibility bound before any row allocation: every encoded
    // cell is at least one tag byte.
    if num_columns == 0 && num_rows > 0 {
        return Err(StoreError::Corrupt {
            context,
            detail: format!("{num_rows} rows with zero columns"),
        });
    }
    if num_rows.checked_mul(num_columns).is_none_or(|cells| cells > reader.remaining()) {
        return Err(StoreError::Corrupt {
            context,
            detail: format!("implausible geometry: {num_rows} rows x {num_columns} columns"),
        });
    }
    let mut rows: Vec<Row> = vec![Vec::with_capacity(num_columns); num_rows];
    for _ in 0..num_columns {
        for row in rows.iter_mut() {
            row.push(reader.take_value()?);
        }
    }
    reader.finish()?;
    let schema = Schema::new(metas)?;
    let mut table = Table::new(name, schema);
    table.extend_rows(rows)?;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use lake_table::TableBuilder;

    use super::*;

    fn sample_table() -> Table {
        let mut table = TableBuilder::new("cities", ["City", "Cases", "Rate", "Open"])
            .row(["Berlin", "1400000", "0.5", "true"])
            .build()
            .unwrap();
        table
            .push_row(vec![Value::Null, Value::Int(-3), Value::Float(2.25), Value::Bool(false)])
            .unwrap();
        table.infer_column_types();
        table
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn table_roundtrips_exactly() {
        let table = sample_table();
        let bytes = encode_table(&table);
        let decoded = decode_table(&bytes, "test").unwrap();
        assert_eq!(decoded, table);
    }

    #[test]
    fn empty_table_roundtrips() {
        let table = Table::new("empty", Schema::from_names(["only"]).unwrap());
        let decoded = decode_table(&encode_table(&table), "test").unwrap();
        assert_eq!(decoded, table);
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = encode_table(&sample_table());
        for len in 0..bytes.len() {
            assert!(
                decode_table(&bytes[..len], "test").is_err(),
                "truncation to {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = encode_table(&sample_table());
        bytes.push(0);
        assert!(decode_table(&bytes, "test").is_err());
    }

    #[test]
    fn implausible_geometry_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        put_str(&mut bytes, "t");
        put_u32(&mut bytes, 1);
        put_str(&mut bytes, "c");
        put_u8(&mut bytes, 0);
        put_u64(&mut bytes, u64::MAX); // claimed row count
        let err = decode_table(&bytes, "test").unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }
}
