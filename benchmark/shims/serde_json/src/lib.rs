//! Stand-in for serde_json that compiles the persistence call sites and
//! refuses every call: model files and `--state-dir` are off the request
//! path and are not exercised by the benchmark.

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::fmt;

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(
            "serde_json is a stand-in in the benchmark workspace: persistence is unavailable",
        )
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_writer<W: std::io::Write, T: ?Sized + Serialize>(_writer: W, _value: &T) -> Result<()> {
    Err(Error)
}

pub fn from_reader<R: std::io::Read, T: DeserializeOwned>(_reader: R) -> Result<T> {
    Err(Error)
}

pub fn from_slice<'a, T: Deserialize<'a>>(_bytes: &'a [u8]) -> Result<T> {
    Err(Error)
}
