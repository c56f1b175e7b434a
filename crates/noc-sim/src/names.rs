//! Name tables: each closed vocabulary whose names end up in labels or
//! cache keys is declared once, and its printer, parser, unknown-name error
//! and grammar synopsis are all read off that declaration. Plain names
//! (routings, topology kinds, switch arbitrations, wire error codes) are
//! enums declared through [`vocabulary!`](crate::vocabulary); each
//! parameterised member (`bern<rate>`, `hotspot<id>-…f<fraction>`) is one
//! [`Form`].

use crate::error::{SimError, SimResult};
use std::fmt::{self, Display};
use std::str::FromStr;

/// Declare a vocabulary enum, each variant written once beside its
/// canonical name; `NAMED`, `name` and `parse` are derived from that list.
#[macro_export]
macro_rules! vocabulary {
    ($(#[$meta:meta])* pub enum $ty:ident as $what:literal {
        $($(#[$vmeta:meta])* $variant:ident = $name:literal,)+
    }) => {
        $(#[$meta])* pub enum $ty { $($(#[$vmeta])* $variant,)+ }

        impl $ty {
            /// Every value with its canonical name, in declaration order.
            pub const NAMED: [(&'static str, $ty); [$($name),+].len()] =
                [$(($name, $ty::$variant)),+];

            /// The canonical name.
            pub fn name(self) -> &'static str {
                match self { $($ty::$variant => $name,)+ }
            }

            /// Parse a canonical name; anything else is the unknown-name error.
            pub fn parse(s: &str) -> $crate::SimResult<$ty> {
                $crate::names::lookup($what, &Self::NAMED, s).copied()
            }
        }
    };
}

/// The value `table` lists under the name `s`, or the unknown-name error.
pub fn lookup<'t, T>(what: &str, table: &'t [(&str, T)], s: &str) -> SimResult<&'t T> {
    match table.iter().find(|(name, _)| *name == s) {
        Some((_, value)) => Ok(value),
        None => Err(unknown(what, s, table.iter().map(|(name, _)| *name))),
    }
}

/// The one unknown-name error: `s` is none of a vocabulary's `members`.
fn unknown<'m>(what: &str, s: &str, members: impl Iterator<Item = &'m str>) -> SimError {
    let members = members.collect::<Vec<_>>().join(", ");
    SimError::UnknownName(format!("unknown {what} `{s}` (expected one of: {members})"))
}

/// One parameterised member of a vocabulary, declared as its synopsis: a
/// literal prefix, then `<field>`s with literal separators between them,
/// as in `burst<rate_on>x<switch>`; a field followed by `-…` is a
/// `-`-separated list. The synopsis drives the member's printer and parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Form(pub &'static str);

impl Form {
    /// The literal text before the first field.
    fn prefix(self) -> &'static str {
        self.0.split('<').next().unwrap_or_default()
    }

    /// Each field's name, with the separator after it (empty after the
    /// last field).
    fn fields(self) -> impl Iterator<Item = (&'static str, &'static str)> {
        self.0.split('<').skip(1).map(|part| {
            let (name, sep) = part.split_once('>').expect("a form's `<` closes");
            (name, sep.trim_start_matches("-…"))
        })
    }

    /// Write this form with `values` in its fields.
    pub fn write(self, f: &mut fmt::Formatter<'_>, values: &[&dyn Display]) -> fmt::Result {
        f.write_str(self.prefix())?;
        (self.fields().zip(values)).try_for_each(|((_, sep), value)| write!(f, "{value}{sep}"))
    }

    /// Split `s` into the fields of the member of `forms` it is written in,
    /// the one with the longest prefix of `s`. If none matches, the
    /// unknown-name error lists the vocabulary's plain `names`, then every
    /// synopsis.
    pub fn parse<'s>(
        what: &str,
        names: &[&str],
        forms: &[Form],
        s: &'s str,
    ) -> SimResult<Fields<'s>> {
        let matched = (forms.iter().enumerate())
            .filter(|(_, form)| s.starts_with(form.prefix()))
            .max_by_key(|(_, form)| form.prefix().len());
        let Some((index, form)) = matched else {
            let synopses = forms.iter().map(|form| form.0);
            return Err(unknown(what, s, names.iter().copied().chain(synopses)));
        };
        let mut parsed = Fields {
            form: index,
            context: format!("{what} `{s}`"),
            texts: Vec::new(),
        };
        let mut rest = &s[form.prefix().len()..];
        for (name, sep) in form.fields() {
            let (text, after) = match sep {
                "" => (rest, ""),
                sep => (rest.split_once(sep))
                    .ok_or_else(|| parsed.error(format_args!("expected {}", form.0)))?,
            };
            parsed.texts.push((name, text));
            rest = after;
        }
        Ok(parsed)
    }
}

/// A label split into the fields of the [`Form`] it is written in.
#[derive(Debug)]
pub struct Fields<'s> {
    /// Index of the matched form in the `forms` given to [`Form::parse`].
    pub form: usize,
    /// What is being parsed, for errors: ``injection process `bern1.5` ``.
    context: String,
    texts: Vec<(&'static str, &'s str)>,
}

impl Fields<'_> {
    /// Field `i` parsed as a `T`.
    pub fn get<T: FromStr<Err: Display>>(&self, i: usize) -> SimResult<T> {
        let (name, text) = self.texts[i];
        self.value(name, text)
    }

    /// List field `i`, each of its `-`-separated items parsed as a `T`.
    pub fn list<T: FromStr<Err: Display>>(&self, i: usize) -> SimResult<Vec<T>> {
        let (name, texts) = self.texts[i];
        texts
            .split('-')
            .map(|text| self.value(name, text))
            .collect()
    }

    /// `value` once `check` accepts it; a rejection names the label, with
    /// one `invalid configuration:` prefix.
    pub fn checked<T>(&self, value: T, check: impl FnOnce(&T) -> SimResult<()>) -> SimResult<T> {
        match check(&value) {
            Err(SimError::InvalidConfig(why)) => Err(self.error(format_args!("{why}"))),
            checked => checked.map(|()| value),
        }
    }

    fn value<T: FromStr<Err: Display>>(&self, name: &str, text: &str) -> SimResult<T> {
        (text.parse()).map_err(|e| self.error(format_args!("bad {name} `{text}`: {e}")))
    }

    fn error(&self, why: fmt::Arguments<'_>) -> SimError {
        SimError::InvalidConfig(format!("{}: {why}", self.context))
    }
}
