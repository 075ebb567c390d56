//! Logical data types.

use std::fmt;

/// The logical type of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE-754 float.
    Float64,
    /// Boolean, bit-packed.
    Bool,
    /// UTF-8 string with 32-bit offsets.
    Utf8,
    /// Dictionary-encoded (LowCardinality) UTF-8: u32 keys into a
    /// deduplicated [`DataType::Utf8`] dictionary. Logically identical
    /// to `Utf8`; the encoding only changes how kernels and wire
    /// frames move the bytes.
    DictUtf8,
}

impl DataType {
    /// Stable numeric tag used by the wire formats.
    pub fn tag(self) -> u8 {
        match self {
            DataType::Int64 => 0,
            DataType::Float64 => 1,
            DataType::Bool => 2,
            DataType::Utf8 => 3,
            DataType::DictUtf8 => 4,
        }
    }

    /// Inverse of [`DataType::tag`].
    pub fn from_tag(tag: u8) -> Option<DataType> {
        match tag {
            0 => Some(DataType::Int64),
            1 => Some(DataType::Float64),
            2 => Some(DataType::Bool),
            3 => Some(DataType::Utf8),
            4 => Some(DataType::DictUtf8),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int64 => "int64",
            DataType::Float64 => "float64",
            DataType::Bool => "bool",
            DataType::Utf8 => "utf8",
            DataType::DictUtf8 => "dict<utf8>",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip() {
        for dt in [
            DataType::Int64,
            DataType::Float64,
            DataType::Bool,
            DataType::Utf8,
            DataType::DictUtf8,
        ] {
            assert_eq!(DataType::from_tag(dt.tag()), Some(dt));
        }
        assert_eq!(DataType::from_tag(200), None);
    }
}
